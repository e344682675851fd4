#include "core/enclave.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "lang/disasm.h"
#include "lang/optimizer.h"
#include "util/hash.h"
#include "util/prefetch.h"

namespace eden::core {

// The immutable rule-set snapshot the data path runs against. Mutators
// copy the current snapshot, edit the copy and publish it with a single
// pointer swap; ActionEntry objects are *shared* between snapshots, so
// an action's global/message state, counters and locks survive rule
// churn, and snapshots only pay for the vector copies. A removed action
// stays alive until the snapshots referencing it are reclaimed, i.e.
// until no data-path guard can still hold one of them.
struct Enclave::RuleState {
  std::uint64_t version = 0;
  std::vector<Table> tables;
  std::vector<FlowClassifierRule> flow_rules;
  std::vector<std::shared_ptr<ActionEntry>> actions;
};

// A replaced snapshot, stamped with EpochDomain::stamp_retire().
struct Enclave::RetiredRules {
  std::unique_ptr<const RuleState> rules;
  std::uint64_t epoch;
};

// One staged transaction: mutations land in `state` (a shadow copy of
// the committed snapshot) and become visible only at commit_txn.
// Global-state writes to actions that pre-date the transaction cannot
// go to the shared entry directly (they would be visible immediately),
// so they are buffered here and applied at commit.
struct Enclave::Txn {
  std::uint64_t id = 0;
  std::unique_ptr<RuleState> state;
  // Actions with index >= base_actions were installed inside this
  // transaction: they are invisible to the data path until commit, so
  // their global state may be written in place.
  std::size_t base_actions = 0;
  struct GlobalWrite {
    std::shared_ptr<ActionEntry> entry;
    std::uint16_t slot = 0;
    bool is_array = false;
    std::int64_t scalar = 0;
    std::vector<std::int64_t> data;
    std::uint16_t stride = 1;
  };
  std::vector<GlobalWrite> writes;
};

namespace detail {

// One sampled action execution: timestamp, the packet's class, the
// action, the metadata the stage attached (Table 2), the execution
// status and the weighted step count.
struct TraceRecord {
  std::int64_t ts_ns = 0;                // enclave clock (sim time if injected)
  std::uint32_t class_id = kInvalidClass;
  std::uint32_t action_id = 0;
  std::uint8_t status = 0;               // lang::ExecStatus value
  std::uint64_t steps = 0;               // weighted interpreter steps
  netsim::PacketMeta meta;               // metadata snapshot at execution
};

// Per-thread execution resources for one enclave instance: the
// interpreter (operand stack, heap, rng) plus a scratch packet-scope
// state block. Reused across packets so the steady-state data path does
// not allocate.
struct ThreadState {
  lang::Interpreter interp;
  lang::StateBlock packet_block;
  lang::StateBlock message_block;       // scratch copy; committed on success
  lang::StateBlock message_checkpoint;  // last good state within a batch
  util::Rng rng;
  // Per-thread trace and histogram pacing (1-in-N executions); plain
  // countdowns here are cheaper than a shared atomic ticket or a
  // thread_local on the per-packet path — ThreadState is already hot.
  std::uint32_t trace_countdown = 1;
  // This thread's lane in the enclave's trace, claimed on first record.
  telemetry::EventLanes<TraceRecord>::Claim trace_lane;
  std::uint32_t hist_countdown = 1;
  // Paces the data path's opportunistic timer-wheel advance (idle
  // expiry + epoch reclaim) to one sweep per ~kExpiryPacePackets
  // packets per thread.
  std::uint32_t expiry_countdown = 1;

  // Data-path scratch, reused so a steady-state call allocates nothing:
  // the packets no table has dropped yet (in arrival order), one table
  // pass's matches tagged with their (action, message) group, arrival
  // index (the sort tiebreak that keeps per-message order) and class
  // counter slot, and one contiguous per-group packet list.
  struct BatchItem {
    Enclave::ActionEntry* entry;
    std::int64_t key;
    std::uint32_t order;
    netsim::Packet* pkt;
    Enclave::ClassCounters* cls;  // null with per-class telemetry off
  };
  std::vector<netsim::Packet*> live;
  std::vector<BatchItem> batch_items;
  std::vector<netsim::Packet*> batch_group;

  // Ordinal 0 (the first thread to use the enclave) draws from rng_seed
  // itself, so single-threaded runs stay reproducible; later threads mix
  // their ordinal in and draw independent streams.
  static std::uint64_t seed_for(std::uint64_t seed, std::uint64_t ordinal) {
    return ordinal == 0 ? seed : util::mix64(seed ^ util::mix64(ordinal));
  }

  ThreadState(const EnclaveConfig& config, const lang::StateSchema& schema,
              std::uint64_t ordinal)
      : interp(config.exec_limits, seed_for(config.rng_seed, ordinal)),
        packet_block(
            lang::StateBlock::from_schema(schema, lang::Scope::packet)),
        rng(seed_for(config.rng_seed, ordinal) ^ 0x517cc1b727220a95ULL) {}
};

}  // namespace detail

using detail::ThreadState;

namespace {

std::atomic<std::uint64_t> g_enclave_instance_counter{1};

// One opportunistic expiry/reclaim sweep per this many packets per
// thread. A sweep with nothing due is a handful of loads per shard, so
// the amortized data-path cost is negligible.
constexpr std::uint32_t kExpiryPacePackets = 1024;

// Key-sharded global serialization is sound exactly when the schema
// proves every global write disjoint by message key: all read_write
// global fields are key_partitioned arrays (a writable scalar or an
// unpartitioned array forces full serialization). Requires at least
// one writable field — otherwise the action would not be serialized on
// globals' account in the first place.
bool global_writes_key_disjoint(const lang::StateSchema& schema) {
  bool any_writable = false;
  for (const lang::FieldDef& f : schema.fields(lang::Scope::global)) {
    if (f.access != lang::Access::read_write) continue;
    if (f.kind == lang::FieldKind::scalar || !f.key_partitioned) return false;
    any_writable = true;
  }
  return any_writable;
}

// Re-initializes a (possibly recycled) FlowStore block to the schema's
// message-scope defaults, reusing the vectors' capacity. Must leave the
// block bit-identical to StateBlock::from_schema(schema, message).
void reset_message_block(const lang::StateSchema& schema,
                         lang::StateBlock& block) {
  block.scalars.assign(schema.scalar_count(lang::Scope::message), 0);
  block.arrays.resize(schema.array_count(lang::Scope::message));
  for (const lang::FieldDef& f : schema.fields(lang::Scope::message)) {
    const auto slot = schema.find(lang::Scope::message, f.name);
    if (!slot) continue;
    if (slot->kind == lang::FieldKind::scalar) {
      block.scalars[slot->slot] = f.default_value;
    } else {
      lang::ArrayValue& a = block.arrays[slot->slot];
      a.stride = slot->stride;
      a.data.clear();
    }
  }
}

std::uint64_t flow_hash(const netsim::Packet& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 31;
  };
  mix(p.src);
  mix(p.dst);
  mix(p.src_port);
  mix(p.dst_port);
  mix(static_cast<std::uint64_t>(p.protocol));
  return h;
}

// Direction-insensitive connection hash: both (a -> b) and (b -> a)
// packets of one connection map to the same value.
std::uint64_t symmetric_flow_hash(const netsim::Packet& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 31;
  };
  const std::uint64_t ep_a =
      (static_cast<std::uint64_t>(p.src) << 16) | p.src_port;
  const std::uint64_t ep_b =
      (static_cast<std::uint64_t>(p.dst) << 16) | p.dst_port;
  mix(ep_a < ep_b ? ep_a : ep_b);
  mix(ep_a < ep_b ? ep_b : ep_a);
  mix(static_cast<std::uint64_t>(p.protocol));
  return h;
}

}  // namespace

// Keyed by a unique instance id (not `this`) so a recycled address never
// aliases another enclave's thread state.
//
// Lifetime: each thread owns its ThreadState blocks, but a destroyed
// enclave's blocks must not accumulate (a long-lived worker thread that
// outlives many short-lived enclaves would otherwise leak one
// ThreadState per dead enclave forever). Enclave construction and
// destruction maintain a process-wide live-id set plus a death
// generation counter; get() compares the generation against the last
// one this thread saw and sweeps dead ids lazily. The sweep only runs
// on threads that keep using *some* enclave — an entirely idle thread
// frees its map at thread exit as before.
struct EnclaveThreadRegistry {
  using Map = std::unordered_map<std::uint64_t, std::unique_ptr<ThreadState>>;

  static std::mutex& live_mutex() {
    static std::mutex m;
    return m;
  }
  static std::unordered_set<std::uint64_t>& live_ids() {
    static std::unordered_set<std::uint64_t> ids;
    return ids;
  }
  static std::atomic<std::uint64_t>& death_generation() {
    static std::atomic<std::uint64_t> gen{0};
    return gen;
  }

  static Map& tls_map() {
    static thread_local Map map;
    return map;
  }

  static void note_created(std::uint64_t instance_id) {
    std::lock_guard lock(live_mutex());
    live_ids().insert(instance_id);
  }

  static void note_destroyed(std::uint64_t instance_id) {
    {
      std::lock_guard lock(live_mutex());
      live_ids().erase(instance_id);
    }
    death_generation().fetch_add(1, std::memory_order_release);
  }

  static ThreadState& get(std::uint64_t instance_id,
                          const EnclaveConfig& config,
                          const lang::StateSchema& schema,
                          std::atomic<std::uint64_t>& next_ordinal) {
    Map& map = tls_map();
    static thread_local std::uint64_t seen_generation = 0;
    const std::uint64_t gen =
        death_generation().load(std::memory_order_acquire);
    if (gen != seen_generation) [[unlikely]] {
      seen_generation = gen;
      std::lock_guard lock(live_mutex());
      std::erase_if(map, [](const auto& kv) {
        return live_ids().count(kv.first) == 0;
      });
    }
    auto& slot = map[instance_id];
    if (!slot) {
      slot = std::make_unique<ThreadState>(
          config, schema,
          next_ordinal.fetch_add(1, std::memory_order_relaxed));
    }
    return *slot;
  }
};

std::size_t enclave_thread_state_count() {
  return EnclaveThreadRegistry::tls_map().size();
}

Enclave::Enclave(std::string name, ClassRegistry& registry,
                 EnclaveConfig config)
    : name_(std::move(name)),
      registry_(registry),
      config_(config),
      base_schema_(make_enclave_schema()),
      instance_id_(g_enclave_instance_counter.fetch_add(1)),
      rules_(new RuleState()) {
  if (config_.telemetry.enabled) {
    if (config_.telemetry.max_classes > 0) {
      // +2: an "unclassified" slot and an overflow slot past max_classes.
      class_counters_ = std::make_unique<ClassCounters[]>(
          config_.telemetry.max_classes + 2);
    }
    if (config_.telemetry.trace_sample_every > 0) {
      trace_ = std::make_unique<telemetry::EventLanes<detail::TraceRecord>>(
          config_.telemetry.trace_capacity);
    }
    // Calibrate the latency tick clock now, not inside a timed region.
    if (config_.telemetry.histograms) telemetry::warm_clock();
  }
  // Lifecycle span tracing rendezvouses in the process-global collector;
  // enabling is idempotent, so every enclave configured for spans just
  // (re)arms it with its sampling rate.
  if (config_.telemetry.span_sample_every > 0) {
    spans_.enable(config_.telemetry.span_sample_every);
  }
  EnclaveThreadRegistry::note_created(instance_id_);
}

Enclave::~Enclave() {
  EnclaveThreadRegistry::note_destroyed(instance_id_);
  delete rules_.load(std::memory_order_relaxed);
}

// --- Snapshot plumbing ----------------------------------------------------

ThreadState& Enclave::thread_state() const {
  return EnclaveThreadRegistry::get(instance_id_, config_, base_schema_,
                                    next_thread_ordinal_);
}

const Enclave::RuleState& Enclave::committed(
    const state::EpochDomain::Guard&) const {
  return *rules_.load(std::memory_order_acquire);
}

const Enclave::RuleState& Enclave::control_view_locked() const {
  if (txn_ != nullptr) return *txn_->state;
  // control_mutex_ is held, so no publish can race this read.
  return *rules_.load(std::memory_order_relaxed);
}

// Returns the state a mutation should edit: the transaction's shadow
// copy when one is open (changes stay staged), or a fresh copy of the
// committed snapshot otherwise, which end_mutation_locked publishes.
Enclave::RuleState& Enclave::begin_mutation_locked() {
  if (txn_ != nullptr) return *txn_->state;
  draft_ = std::make_unique<RuleState>(control_view_locked());
  return *draft_;
}

void Enclave::end_mutation_locked() {
  if (txn_ != nullptr) return;  // staged; published by commit_txn
  publish_locked(std::move(draft_));
}

// Swaps the snapshot in, then retires the old one the way FlowStore
// retires its tables: stamped with the domain's epoch after the swap,
// so a guard pinned at or below the stamp may still hold it, and freed
// once reclaim_horizon() passes the stamp.
std::uint64_t Enclave::publish_locked(std::unique_ptr<RuleState> next) {
  const std::uint64_t version = next->version = next_version_++;
  const RuleState* old =
      rules_.exchange(next.release(), std::memory_order_acq_rel);
  retired_.push_back({std::unique_ptr<const RuleState>(old),
                      epochs_.stamp_retire()});
  const std::uint64_t horizon = epochs_.reclaim_horizon();
  std::erase_if(retired_, [horizon](const RetiredRules& r) {
    return r.epoch < horizon;
  });
  return version;
}

// --- Transactions ---------------------------------------------------------

std::uint64_t Enclave::begin_txn() {
  std::lock_guard lock(control_mutex_);
  if (txn_ != nullptr) throw std::invalid_argument("transaction already open");
  auto txn = std::make_unique<Txn>();
  txn->id = next_txn_id_++;
  txn->state = std::make_unique<RuleState>(control_view_locked());
  txn->base_actions = txn->state->actions.size();
  txn_ = std::move(txn);
  return txn_->id;
}

std::uint64_t Enclave::commit_txn() {
  std::lock_guard lock(control_mutex_);
  if (txn_ == nullptr) throw std::invalid_argument("no open transaction");
  // Apply the buffered global writes first, grouped so each action's
  // lock is taken once: the data path sees every pre-existing action
  // flip its globals atomically, and any *new* rules referencing those
  // actions only appear with the snapshot swap below, i.e. after their
  // state is in place.
  auto& writes = txn_->writes;
  std::stable_sort(writes.begin(), writes.end(),
                   [](const Txn::GlobalWrite& a, const Txn::GlobalWrite& b) {
                     return a.entry.get() < b.entry.get();
                   });
  for (std::size_t i = 0; i < writes.size();) {
    ActionEntry* entry = writes[i].entry.get();
    std::unique_lock glock(entry->global_mutex);
    for (; i < writes.size() && writes[i].entry.get() == entry; ++i) {
      Txn::GlobalWrite& w = writes[i];
      if (w.is_array) {
        entry->global_state.arrays[w.slot].stride = w.stride;
        entry->global_state.arrays[w.slot].data = std::move(w.data);
      } else {
        entry->global_state.scalars[w.slot] = w.scalar;
      }
    }
  }
  std::unique_ptr<RuleState> next = std::move(txn_->state);
  txn_.reset();
  return publish_locked(std::move(next));
}

void Enclave::abort_txn() {
  std::lock_guard lock(control_mutex_);
  txn_.reset();
}

bool Enclave::txn_open() const {
  std::lock_guard lock(control_mutex_);
  return txn_ != nullptr;
}

std::uint64_t Enclave::ruleset_version() const {
  const state::EpochDomain::Guard guard(epochs_);
  return committed(guard).version;
}

void Enclave::clear_all() {
  std::lock_guard lock(control_mutex_);
  RuleState& state = begin_mutation_locked();
  state.actions.clear();
  state.tables.clear();
  state.flow_rules.clear();
  if (txn_ != nullptr) {
    // Everything installed from here on is transaction-fresh, and any
    // buffered writes targeted state that just got wiped.
    txn_->base_actions = 0;
    txn_->writes.clear();
  }
  end_mutation_locked();
}

// --- Enclave API (controller side) ----------------------------------------

ActionId Enclave::install_entry(std::shared_ptr<ActionEntry> entry) {
  // Runtime state machinery, shared by both install paths. The
  // FlowStore mirrors its created/expired/evicted counts into the
  // enclave counters, so enclave-lifetime accounting survives the
  // store being torn down with its action.
  if (entry->touches_message && entry->messages == nullptr) {
    state::FlowStoreConfig fc;
    fc.shards = config_.message_store_shards;
    fc.max_entries = config_.max_messages_per_action;
    fc.idle_timeout_ns = config_.message_idle_timeout_ns;
    fc.wheel_tick_ns = config_.message_wheel_tick_ns;
    fc.sink.created = &counters_.message_entries_created;
    fc.sink.expired = &counters_.message_entries_expired;
    fc.sink.evicted = &counters_.message_entries_evicted;
    entry->messages = std::make_unique<state::FlowStore>(fc);
  }
  if (entry->mode == lang::ConcurrencyMode::serialized &&
      global_writes_key_disjoint(entry->schema)) {
    entry->global_sharded = true;
    entry->global_stripes =
        std::make_unique<std::array<std::mutex, ActionEntry::kGlobalStripes>>();
  }
  std::lock_guard lock(control_mutex_);
  RuleState& state = begin_mutation_locked();
  // Reinstalling a live name replaces the entry in its slot: the id —
  // and every rule addressing it — survives, so the data path flips to
  // the new program at the snapshot swap and name lookups can never
  // resolve to a stale duplicate. Snapshots still holding the old entry
  // keep it alive until their readers drain.
  std::shared_ptr<ActionEntry> replaced;
  std::size_t slot = state.actions.size();
  for (std::size_t i = 0; i < state.actions.size(); ++i) {
    if (state.actions[i] != nullptr &&
        state.actions[i]->name == entry->name) {
      replaced = state.actions[i];
      slot = i;
      break;
    }
  }
  entry->id = static_cast<ActionId>(slot);
  attach_instruments(*entry);
  const ActionId id = entry->id;
  if (slot == state.actions.size()) {
    state.actions.push_back(std::move(entry));
  } else {
    state.actions[slot] = std::move(entry);
    if (txn_ != nullptr) {
      // Writes staged against the replaced entry would land on a dead
      // object at commit; the new program starts from schema defaults.
      std::erase_if(txn_->writes, [&](const Txn::GlobalWrite& w) {
        return w.entry == replaced;
      });
    }
  }
  end_mutation_locked();
  return id;
}

ActionId Enclave::install_action(const std::string& name,
                                 lang::CompiledProgram program,
                                 std::vector<lang::FieldDef> global_fields) {
  auto entry = std::make_shared<ActionEntry>();
  entry->name = name;
  entry->native = false;
  entry->mode = program.concurrency;
  entry->touches_message =
      program.usage.touches_scope(lang::Scope::message);
  entry->schema = make_enclave_schema(std::move(global_fields));
  // Install-time lowering: reject malformed bytecode up front (it may
  // have arrived over the wire), optimize, and verify the result so the
  // data path can take the pre-verified dispatch. The second verify
  // doubles as a regression guard on the optimizer itself.
  lang::verify_program(program, entry->schema, config_.exec_limits);
  program = lang::optimize(std::move(program), config_.opt_level);
  lang::verify_program(program, entry->schema, config_.exec_limits);
  program.preverified = true;
  entry->program = std::move(program);
  entry->global_state =
      lang::StateBlock::from_schema(entry->schema, lang::Scope::global);
  if (config_.telemetry.profile_actions) {
    entry->profile = std::make_unique<telemetry::ProgramProfile>();
  }
  return install_entry(std::move(entry));
}

ActionId Enclave::install_native_action(
    const std::string& name, NativeActionFn fn, lang::ConcurrencyMode mode,
    bool touches_message, std::vector<lang::FieldDef> global_fields) {
  auto entry = std::make_shared<ActionEntry>();
  entry->name = name;
  entry->native = true;
  entry->native_fn = std::move(fn);
  entry->mode = mode;
  entry->touches_message = touches_message;
  entry->schema = make_enclave_schema(std::move(global_fields));
  entry->global_state =
      lang::StateBlock::from_schema(entry->schema, lang::Scope::global);
  return install_entry(std::move(entry));
}

// Resolves the action's histogram instruments once at install time, so
// the data path records through raw pointers (null = histograms off).
// Reinstalling an action under the same name reuses its series.
void Enclave::attach_instruments(ActionEntry& entry) {
  if (!config_.telemetry.enabled || !config_.telemetry.histograms) return;
  const telemetry::Labels labels{{"enclave", name_}, {"action", entry.name}};
  entry.latency_hist = &metrics_.histogram("eden_action_latency_ns", labels);
  if (!entry.native) {
    entry.steps_hist = &metrics_.histogram("eden_action_steps", labels);
  }
}

void Enclave::remove_action(ActionId id) {
  std::lock_guard lock(control_mutex_);
  const RuleState& view = control_view_locked();
  if (id >= view.actions.size() || view.actions[id] == nullptr) return;
  RuleState& state = begin_mutation_locked();
  // Remove any rules pointing at the action, then drop it. The slot is
  // left as a hole so action ids stay stable.
  for (Table& table : state.tables) {
    std::erase_if(table.rules,
                  [id](const MatchRule& r) { return r.action == id; });
  }
  state.actions[id] = nullptr;
  end_mutation_locked();
}

std::optional<ActionId> Enclave::find_action(const std::string& name) const {
  std::lock_guard lock(control_mutex_);
  for (const auto& entry : control_view_locked().actions) {
    if (entry != nullptr && entry->name == name) return entry->id;
  }
  return std::nullopt;
}

TableId Enclave::create_table(const std::string& name) {
  std::lock_guard lock(control_mutex_);
  RuleState& state = begin_mutation_locked();
  const TableId id = next_table_id_++;
  state.tables.push_back(Table{id, name, {}});
  end_mutation_locked();
  return id;
}

void Enclave::delete_table(TableId table) {
  std::lock_guard lock(control_mutex_);
  RuleState& state = begin_mutation_locked();
  std::erase_if(state.tables,
                [table](const Table& t) { return t.id == table; });
  end_mutation_locked();
}

std::optional<TableId> Enclave::find_table_id(const std::string& name) const {
  std::lock_guard lock(control_mutex_);
  for (const Table& t : control_view_locked().tables) {
    if (t.name == name) return t.id;
  }
  return std::nullopt;
}

MatchRuleId Enclave::add_rule(TableId table, ClassPattern pattern,
                              ActionId action) {
  std::lock_guard lock(control_mutex_);
  // Validate against the current view first, so a rejected call leaves
  // no draft behind.
  const RuleState& view = control_view_locked();
  const auto t = std::find_if(view.tables.begin(), view.tables.end(),
                              [table](const Table& c) { return c.id == table; });
  if (t == view.tables.end()) throw std::invalid_argument("no such table");
  if (action >= view.actions.size() || view.actions[action] == nullptr) {
    throw std::invalid_argument("no such action");
  }
  const std::size_t index = t - view.tables.begin();
  RuleState& state = begin_mutation_locked();
  const MatchRuleId id = next_rule_id_++;
  state.tables[index].rules.push_back(
      MatchRule{id, std::move(pattern), action});
  end_mutation_locked();
  return id;
}

bool Enclave::remove_rule(TableId table, MatchRuleId rule) {
  std::lock_guard lock(control_mutex_);
  const RuleState& view = control_view_locked();
  const auto is_rule = [rule](const MatchRule& r) { return r.id == rule; };
  for (std::size_t i = 0; i < view.tables.size(); ++i) {
    if (view.tables[i].id != table) continue;
    if (std::none_of(view.tables[i].rules.begin(),
                     view.tables[i].rules.end(), is_rule)) {
      return false;
    }
    RuleState& state = begin_mutation_locked();
    std::erase_if(state.tables[i].rules, is_rule);
    end_mutation_locked();
    return true;
  }
  return false;
}

std::size_t Enclave::rule_count(TableId table) const {
  std::lock_guard lock(control_mutex_);
  for (const Table& t : control_view_locked().tables) {
    if (t.id == table) return t.rules.size();
  }
  return 0;
}

void Enclave::add_flow_rule(FlowClassifierRule rule) {
  std::lock_guard lock(control_mutex_);
  RuleState& state = begin_mutation_locked();
  state.flow_rules.push_back(rule);
  end_mutation_locked();
}

void Enclave::clear_flow_rules() {
  std::lock_guard lock(control_mutex_);
  RuleState& state = begin_mutation_locked();
  state.flow_rules.clear();
  end_mutation_locked();
}

void Enclave::set_global_scalar(ActionId id, const std::string& field,
                                std::int64_t value) {
  std::lock_guard lock(control_mutex_);
  const RuleState& view = control_view_locked();
  if (id >= view.actions.size() || view.actions[id] == nullptr) {
    throw std::invalid_argument("no such action");
  }
  const std::shared_ptr<ActionEntry>& entry = view.actions[id];
  const auto slot = entry->schema.find(lang::Scope::global, field);
  if (!slot || slot->kind != lang::FieldKind::scalar) {
    throw std::invalid_argument("no global scalar '" + field + "'");
  }
  if (txn_ != nullptr && id < txn_->base_actions) {
    // Pre-existing action: stage the write; commit applies it.
    txn_->writes.push_back(
        Txn::GlobalWrite{entry, slot->slot, false, value, {}, 1});
    return;
  }
  std::unique_lock glock(entry->global_mutex);
  entry->global_state.scalars[slot->slot] = value;
}

void Enclave::set_global_array(ActionId id, const std::string& field,
                               std::vector<std::int64_t> data) {
  std::lock_guard lock(control_mutex_);
  const RuleState& view = control_view_locked();
  if (id >= view.actions.size() || view.actions[id] == nullptr) {
    throw std::invalid_argument("no such action");
  }
  const std::shared_ptr<ActionEntry>& entry = view.actions[id];
  const auto slot = entry->schema.find(lang::Scope::global, field);
  if (!slot || slot->kind == lang::FieldKind::scalar) {
    throw std::invalid_argument("no global array '" + field + "'");
  }
  if (data.size() % slot->stride != 0) {
    throw std::invalid_argument("array data for '" + field +
                                "' is not a whole number of records");
  }
  if (txn_ != nullptr && id < txn_->base_actions) {
    txn_->writes.push_back(Txn::GlobalWrite{entry, slot->slot, true, 0,
                                            std::move(data), slot->stride});
    return;
  }
  std::unique_lock glock(entry->global_mutex);
  entry->global_state.arrays[slot->slot].stride = slot->stride;
  entry->global_state.arrays[slot->slot].data = std::move(data);
}

std::int64_t Enclave::read_global_scalar(ActionId id,
                                         const std::string& field) const {
  const std::shared_ptr<ActionEntry> entry = checked_entry(id);
  const auto slot = entry->schema.find(lang::Scope::global, field);
  if (!slot || slot->kind != lang::FieldKind::scalar) {
    throw std::invalid_argument("no global scalar '" + field + "'");
  }
  std::shared_lock glock(entry->global_mutex);
  return entry->global_state.scalars[slot->slot];
}

std::shared_ptr<Enclave::ActionEntry> Enclave::checked_entry(
    ActionId id) const {
  std::lock_guard lock(control_mutex_);
  const RuleState& view = control_view_locked();
  if (id >= view.actions.size() || view.actions[id] == nullptr) {
    throw std::invalid_argument("no such action");
  }
  return view.actions[id];
}

std::int64_t Enclave::message_key(const netsim::Packet& p) {
  if (p.meta.msg_id != 0) return p.meta.msg_id;
  // Flow-granularity fallback: high bit set so flow keys never collide
  // with stage-assigned message ids (positive counters).
  return static_cast<std::int64_t>(flow_hash(p) | 0x8000000000000000ULL);
}

std::int64_t Enclave::symmetric_message_key(const netsim::Packet& p) {
  if (p.meta.msg_id != 0) return p.meta.msg_id;
  return static_cast<std::int64_t>(symmetric_flow_hash(p) |
                                   0x8000000000000000ULL);
}

std::uint64_t Enclave::steering_key(const netsim::Packet& p) {
  // Unstamped packets get their message identity assigned inside the
  // enclave from the five-tuple (classify_flow), so steering by a
  // five-tuple hash keeps every packet of that future message on one
  // shard; the symmetric variant also co-shards both directions of a
  // connection, which symmetric flow rules require.
  if (p.meta.msg_id != 0) return static_cast<std::uint64_t>(p.meta.msg_id);
  return symmetric_flow_hash(p);
}

std::int64_t Enclave::now_ns() const {
  // The injected clock (simulators) wins; otherwise the monotonic
  // clock, which is all the idleness machinery needs.
  if (clock_fn_ != nullptr) return clock_fn_(clock_ctx_);
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
// FlowStore init callback: runs under the shard lock for a freshly
// created (possibly recycled) entry.
struct MessageInitCtx {
  const lang::StateSchema* schema;
  const netsim::Packet* packet;
};

void init_message_block(void* vctx, lang::StateBlock& block) {
  auto* ctx = static_cast<MessageInitCtx*>(vctx);
  reset_message_block(*ctx->schema, block);
  init_message_state(*ctx->packet, block);
}
}  // namespace

state::FlowStore::Entry* Enclave::message_entry(
    const state::EpochDomain::Guard& guard, ActionEntry& entry,
    const netsim::Packet& p) {
  MessageInitCtx ctx{&entry.schema, &p};
  return entry.messages->acquire(guard, message_key(p), now_ns(),
                                 &init_message_block, &ctx);
}

// Opportunistic idle expiry: every thread on the data path advances the
// timer wheels (and reclaims epoch-retired memory) once per
// kExpiryPacePackets packets. It runs under the call's guard, so what a
// sweep retires is recycled by a later sweep. Workers that want tighter
// expiry latency or stripe partitioning call advance_message_expiry()
// themselves.
void Enclave::maybe_advance_expiry(detail::ThreadState& ts,
                                   const RuleState& rules) {
  if (--ts.expiry_countdown != 0) [[likely]] {
    return;
  }
  ts.expiry_countdown = kExpiryPacePackets;
  const std::int64_t now = now_ns();
  for (const auto& entry : rules.actions) {
    if (entry != nullptr && entry->messages != nullptr) {
      entry->messages->advance(now);
    }
  }
}

void Enclave::advance_message_expiry(std::size_t stripe,
                                     std::size_t stripes) {
  if (stripes == 0) stripes = 1;
  const state::EpochDomain::Guard guard(epochs_);
  const std::int64_t now = now_ns();
  for (const auto& entry : committed(guard).actions) {
    if (entry != nullptr && entry->messages != nullptr) {
      entry->messages->advance_stripe(stripe, stripes, now);
    }
  }
}

void Enclave::classify_flow(const RuleState& rules,
                            netsim::Packet& packet) const {
  // Enclave-stage classification (Table 2, last row): five-tuple rules
  // assign a class and a flow-granularity message id.
  for (const FlowClassifierRule& rule : rules.flow_rules) {
    if (rule.matches(packet)) {
      packet.classes.add(rule.class_id);
      if (packet.meta.msg_id == 0) {
        packet.meta.msg_id = rule.symmetric ? symmetric_message_key(packet)
                                            : message_key(packet);
      }
      break;
    }
  }
}

Enclave::TableMatch Enclave::match_in_table(
    const Table& table, const netsim::Packet& packet) const {
  for (const MatchRule& rule : table.rules) {
    if (rule.pattern.match_any()) {
      // Attribute a match-any hit to the packet's primary class, if the
      // packet carries one.
      return {&rule,
              packet.classes.size() > 0 ? packet.classes[0] : kInvalidClass};
    }
    for (std::size_t i = 0; i < packet.classes.size(); ++i) {
      if (rule.pattern.matches(packet.classes[i], registry_)) {
        return {&rule, packet.classes[i]};
      }
    }
  }
  return {};
}

// Per-class counter slot, or null when per-class telemetry is off.
// Classes interned past max_classes share the overflow slot.
Enclave::ClassCounters* Enclave::class_counter(ClassId cls) {
  if (class_counters_ == nullptr) return nullptr;
  const std::size_t n = config_.telemetry.max_classes;
  const std::size_t idx = cls == kInvalidClass ? n : (cls < n ? cls : n + 1);
  return &class_counters_[idx];
}

bool Enclave::process(netsim::Packet& packet) {
  ThreadState& ts = thread_state();
  ts.live.clear();
  ts.live.push_back(&packet);
  return run_tables(ts) != 0;
}

std::size_t Enclave::process_batch(std::span<netsim::PacketPtr> batch) {
  ThreadState& ts = thread_state();
  ts.live.clear();
  for (const netsim::PacketPtr& p : batch) ts.live.push_back(p.get());
  return run_tables(ts);
}

std::size_t Enclave::run_tables(ThreadState& ts) {
  counters_.packets.fetch_add(ts.live.size(), std::memory_order_relaxed);
  // One guard for the whole call pins both the rule snapshot and every
  // message-state entry the groups acquire: neither can be freed under
  // the call even if a publish, expiry, eviction or shard resize unlinks
  // it meanwhile.
  const state::EpochDomain::Guard guard(epochs_);
  const RuleState& rules = committed(guard);
  if (config_.message_idle_timeout_ns > 0) maybe_advance_expiry(ts, rules);

  // Packets that arrive unstamped (direct callers without a stage in
  // front) start a lifecycle trace here, paced by the collector's own
  // 1-in-N countdown. Everything downstream keys off meta.trace_id, so
  // an untraced packet costs one branch per hop.
  const bool span_start = config_.telemetry.span_sample_every != 0;
  for (std::size_t i = 0; i < ts.live.size(); ++i) {
    // Prefetch-ahead: packet i+k's header/meta lines are on their way
    // while i classifies, hiding the pointer-chase miss that otherwise
    // dominates a cold batch.
    if (i + util::kPrefetchAhead < ts.live.size()) {
      util::prefetch_write(ts.live[i + util::kPrefetchAhead]);
    }
    netsim::Packet& p = *ts.live[i];
    if (span_start && p.meta.trace_id == 0) {
      p.meta.trace_id = spans_.maybe_start_trace();
    }
    classify_flow(rules, p);
  }
  for (const Table& table : rules.tables) {
    if (ts.live.empty()) break;
    run_table(ts, rules, table, guard);
  }
  return ts.live.size();
}

// One grouped pass of a table over the live packets: match, split by
// (action, message) so the lock and state copy are taken once per
// message rather than once per packet, run the groups, then drop from
// the live list every packet its action dropped. Grouping sorts the
// thread's scratch (entry, key, arrival index) items, so a steady-state
// pass costs no allocation; the arrival-index tiebreak preserves order
// within each message.
void Enclave::run_table(ThreadState& ts, const RuleState& rules,
                        const Table& table,
                        const state::EpochDomain::Guard& guard) {
  ts.batch_items.clear();
  std::uint32_t order = 0;
  for (netsim::Packet* p : ts.live) {
    const TableMatch hit = match_in_table(table, *p);
    if (hit.rule == nullptr) continue;
    ActionEntry* entry = hit.rule->action < rules.actions.size()
                             ? rules.actions[hit.rule->action].get()
                             : nullptr;
    if (entry == nullptr) continue;
    if (p->meta.trace_id != 0) {
      // Matching is folded into the pass, so the hop is an instant.
      spans_.record_now(p->meta.trace_id, telemetry::Hop::enclave_match,
                        entry->id);
    }
    // With per-class telemetry on, the class slot is the sole matched/
    // dropped counter for this packet and stats() folds the slots back
    // into the totals.
    ClassCounters* cls = class_counter(hit.cls);
    if (cls != nullptr) {
      cls->matched.fetch_add(1, std::memory_order_relaxed);
    } else {
      counters_.matched.fetch_add(1, std::memory_order_relaxed);
    }
    // global_sharded actions group by key even without message state:
    // the stripe lock is per message key, so batching same-key packets
    // amortizes it exactly like the message lock.
    const std::int64_t key = entry->touches_message || entry->global_sharded
                                 ? message_key(*p)
                                 : 0;
    ts.batch_items.push_back({entry, key, order++, p, cls});
  }
  if (ts.batch_items.empty()) return;
  const auto same_group = [](const ThreadState::BatchItem& a,
                             const ThreadState::BatchItem& b) {
    return a.entry == b.entry && a.key == b.key;
  };
  if (ts.batch_items.size() > 1) {
    std::sort(ts.batch_items.begin(), ts.batch_items.end(),
              [](const ThreadState::BatchItem& a,
                 const ThreadState::BatchItem& b) {
                if (a.entry != b.entry) return a.entry < b.entry;
                if (a.key != b.key) return a.key < b.key;
                return a.order < b.order;
              });
  }
  if (!same_group(ts.batch_items.front(), ts.batch_items.back())) {
    // Overlap the message-store misses across the groups: the first
    // wave warms each group's table lines, the second chases the slot
    // pointers and pulls the entry lines write-intent, the third the
    // state payload, so the acquire inside run_action_batch hits cache
    // even at millions of live messages. Group heads only — the groups
    // share entries. A single group has nothing to overlap.
    const auto is_head = [&](std::size_t i) {
      const ThreadState::BatchItem& it = ts.batch_items[i];
      if (!it.entry->touches_message || it.entry->messages == nullptr) {
        return false;
      }
      return i == 0 || !same_group(it, ts.batch_items[i - 1]);
    };
    for (std::size_t i = 0; i < ts.batch_items.size(); ++i) {
      if (is_head(i)) {
        const ThreadState::BatchItem& it = ts.batch_items[i];
        it.entry->messages->prefetch(guard, it.key);
      }
    }
    for (std::size_t i = 0; i < ts.batch_items.size(); ++i) {
      if (is_head(i)) {
        const ThreadState::BatchItem& it = ts.batch_items[i];
        it.entry->messages->prefetch_entry(guard, it.key);
      }
    }
    for (std::size_t i = 0; i < ts.batch_items.size(); ++i) {
      if (is_head(i)) {
        const ThreadState::BatchItem& it = ts.batch_items[i];
        it.entry->messages->prefetch_payload(guard, it.key);
      }
    }
  }
  for (std::size_t i = 0; i < ts.batch_items.size();) {
    const ThreadState::BatchItem& head = ts.batch_items[i];
    ts.batch_group.clear();
    std::size_t j = i;
    for (; j < ts.batch_items.size() && same_group(ts.batch_items[j], head);
         ++j) {
      ts.batch_group.push_back(ts.batch_items[j].pkt);
    }
    // Warm the next group's head while this group executes.
    if (j < ts.batch_items.size()) {
      util::prefetch_write(ts.batch_items[j].pkt);
    }
    run_action_batch(ts, guard, *head.entry, ts.batch_group);
    i = j;
  }

  // A dropped packet is counted once, against the class this table
  // matched it on, and runs no later table.
  bool dropped = false;
  for (const ThreadState::BatchItem& it : ts.batch_items) {
    if (!it.pkt->drop_mark) continue;
    dropped = true;
    if (it.cls != nullptr) {
      it.cls->dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      counters_.dropped_by_action.fetch_add(1, std::memory_order_relaxed);
    }
    if (it.pkt->meta.trace_id != 0) {
      spans_.record_now(it.pkt->meta.trace_id, telemetry::Hop::enclave_drop,
                        it.entry->id);
    }
  }
  if (dropped) {
    std::erase_if(ts.live,
                  [](const netsim::Packet* p) { return p->drop_mark; });
  }
}

// Executes the action for every packet of one message (all packets in
// `packets` share the message key, or the action does not touch message
// state). Locking and the message-state copy happen once for the whole
// group; each packet still commits or rolls back independently. The
// caller's guard keeps msg_entry (and the table it was probed through)
// alive for the whole group.
void Enclave::run_action_batch(detail::ThreadState& ts,
                               const state::EpochDomain::Guard& guard,
                               ActionEntry& entry,
                               std::span<netsim::Packet* const> packets) {
  state::FlowStore::Entry* msg_entry = nullptr;
  if (entry.touches_message) {
    msg_entry = message_entry(guard, entry, *packets[0]);
  }

  // Concurrency model of Section 3.4.4: writable global state fully
  // serializes; writable message state serializes per message; otherwise
  // executions proceed in parallel. Readers always take the global lock
  // shared so controller updates stay atomic with respect to a run.
  //
  // Refinement: when the schema proves global writes disjoint by
  // message key (global_sharded), "fully serialized" degrades to
  // "serialized per key stripe" — the group takes its key's stripe
  // exclusively plus the global lock SHARED, so different-key groups
  // run concurrently while whole-state controller writers (which take
  // the global lock exclusively) still exclude every execution.
  std::shared_lock<std::shared_mutex> global_shared;
  std::unique_lock<std::shared_mutex> global_unique;
  std::unique_lock<std::mutex> stripe_lock;
  std::unique_lock<std::mutex> msg_lock;
  if (entry.mode == lang::ConcurrencyMode::serialized) {
    if (entry.global_sharded) {
      const auto key = static_cast<std::uint64_t>(message_key(*packets[0]));
      stripe_lock = std::unique_lock(
          (*entry.global_stripes)[util::mix64(key) &
                                  (ActionEntry::kGlobalStripes - 1)]);
      global_shared = std::shared_lock(entry.global_mutex);
    } else {
      global_unique = std::unique_lock(entry.global_mutex);
    }
  } else {
    global_shared = std::shared_lock(entry.global_mutex);
    if (entry.mode == lang::ConcurrencyMode::per_message &&
        msg_entry != nullptr) {
      msg_lock = std::unique_lock(msg_entry->lock);
    }
  }

  // The function runs against a consistent *copy* of the message state
  // (Section 3.4.4); the authoritative entry is updated only from
  // successful executions, so a faulty action never leaves partial
  // message-state writes behind.
  lang::StateBlock* msg_block = nullptr;
  const bool writes_message =
      entry.native ? entry.touches_message
                   : entry.program.usage.writes_scope(lang::Scope::message);
  if (msg_entry != nullptr) {
    ts.message_block = msg_entry->block;
    msg_block = &ts.message_block;
    if (writes_message) ts.message_checkpoint = ts.message_block;
  }

  if (!entry.native) ts.interp.set_clock(clock_fn_, clock_ctx_);
  // Hot-spot profiling (opt-in diagnostics): the profile's cells are
  // plain counters, so profiled executions of this action serialize on
  // the profile mutex for the whole group.
  std::unique_lock<std::mutex> profile_lock;
  if (!entry.native && entry.profile != nullptr) {
    profile_lock = std::unique_lock(entry.profile_mutex);
    ts.interp.set_profile(entry.profile.get(),
                          config_.telemetry.profile_cycle_sample_every);
  }
  bool msg_dirty = false;

  // Telemetry is pay-for-what-you-enable: with histograms off the
  // per-packet cost is the relaxed counter adds; with them on, the
  // not-sampled packets add a thread-local counter check and only every
  // histogram_sample_every-th execution is actually timed.
  const std::uint32_t hist_every =
      entry.latency_hist != nullptr ? config_.telemetry.histogram_sample_every
                                    : 0;
  telemetry::EventLanes<detail::TraceRecord>* trace = trace_.get();

  for (std::size_t pi = 0; pi < packets.size(); ++pi) {
    netsim::Packet* packet = packets[pi];
    // Overlap the next packet's state-load miss with this execution.
    if (pi + 1 < packets.size()) util::prefetch_write(packets[pi + 1]);
    load_packet_state(*packet, ts.packet_block);

    bool sampled = false;
    if (hist_every != 0 && --ts.hist_countdown == 0) {
      ts.hist_countdown = hist_every;
      sampled = true;
    }
    const std::uint64_t t0 = sampled ? telemetry::now_ticks() : 0;
    const std::int64_t span_id = packet->meta.trace_id;
    std::int64_t span_t0 = 0;
    if (span_id != 0) span_t0 = spans_.now_ns();

    lang::ExecStatus status;
    std::uint64_t steps = 0;
    if (entry.native) {
      NativeCtx ctx{ts.rng,
                    clock_fn_ != nullptr ? clock_fn_(clock_ctx_) : 0};
      status = entry.native_fn(ts.packet_block, msg_block,
                               &entry.global_state, ctx);
    } else {
      const lang::ExecResult result = ts.interp.execute(
          entry.program, &ts.packet_block, msg_block, &entry.global_state);
      status = result.status;
      steps = result.steps;
      entry.counters.steps.fetch_add(steps, std::memory_order_relaxed);
    }

    if (sampled) {
      entry.latency_hist->record(
          telemetry::ticks_to_ns(telemetry::now_ticks() - t0));
      if (entry.steps_hist != nullptr) entry.steps_hist->record(steps);
    }
    if (span_id != 0) {
      const std::int64_t now = spans_.now_ns();
      spans_.record(span_id, telemetry::Hop::action_exec, now, now - span_t0,
                    entry.id);
    }
    entry.counters.executions.fetch_add(1, std::memory_order_relaxed);

    if (trace != nullptr && --ts.trace_countdown == 0) {
      ts.trace_countdown = config_.telemetry.trace_sample_every;
      detail::TraceRecord rec;
      rec.ts_ns = clock_fn_ != nullptr
                      ? clock_fn_(clock_ctx_)
                      : static_cast<std::int64_t>(
                            telemetry::ticks_to_ns(telemetry::now_ticks()));
      rec.class_id =
          packet->classes.size() > 0 ? packet->classes[0] : kInvalidClass;
      rec.action_id = entry.id;
      rec.status = static_cast<std::uint8_t>(status);
      rec.steps = steps;
      rec.meta = packet->meta;
      trace->push(ts.trace_lane, rec);
    }

    if (status != lang::ExecStatus::ok) {
      // A faulty execution terminates without touching the packet or
      // the message state (Section 3.4.3): rewind to the last good
      // checkpoint so the next packet of the batch starts clean.
      entry.counters.errors.fetch_add(1, std::memory_order_relaxed);
      entry.counters.by_status[static_cast<std::size_t>(status)].fetch_add(
          1, std::memory_order_relaxed);
      if (msg_entry != nullptr && writes_message) {
        ts.message_block = ts.message_checkpoint;
      }
      continue;
    }
    store_packet_state(ts.packet_block, *packet);
    if (msg_entry != nullptr && writes_message) {
      ts.message_checkpoint = ts.message_block;
      msg_dirty = true;
    }
  }

  if (profile_lock.owns_lock()) ts.interp.set_profile(nullptr);

  if (msg_entry != nullptr && msg_dirty) {
    msg_entry->block = ts.message_block;
  }
}

EnclaveStats Enclave::stats() const {
  EnclaveStats s;
  s.packets = counters_.packets.load(std::memory_order_relaxed);
  s.matched = counters_.matched.load(std::memory_order_relaxed);
  s.dropped_by_action =
      counters_.dropped_by_action.load(std::memory_order_relaxed);
  // With per-class telemetry on, matched/dropped live in the class
  // slots (the data path increments exactly one counter per packet
  // either way); fold them back into the totals here.
  if (class_counters_ != nullptr) {
    const std::size_t n = config_.telemetry.max_classes;
    for (std::size_t i = 0; i < n + 2; ++i) {
      s.matched += class_counters_[i].matched.load(std::memory_order_relaxed);
      s.dropped_by_action +=
          class_counters_[i].dropped.load(std::memory_order_relaxed);
    }
  }
  s.message_entries_created =
      counters_.message_entries_created.load(std::memory_order_relaxed);
  s.message_entries_evicted =
      counters_.message_entries_evicted.load(std::memory_order_relaxed);
  s.message_entries_expired =
      counters_.message_entries_expired.load(std::memory_order_relaxed);
  // Live entries are per-store state, not a monotonic counter: sum the
  // currently installed actions' stores.
  const state::EpochDomain::Guard guard(epochs_);
  for (const auto& entry : committed(guard).actions) {
    if (entry != nullptr && entry->messages != nullptr) {
      s.message_entries_live += entry->messages->live();
    }
  }
  return s;
}

bool Enclave::action_global_sharded(ActionId id) const {
  return checked_entry(id)->global_sharded;
}

state::FlowStoreStats Enclave::message_store_stats(ActionId id) const {
  const std::shared_ptr<ActionEntry> entry = checked_entry(id);
  if (entry->messages == nullptr) return {};
  return entry->messages->stats();
}

ActionStats Enclave::action_stats(ActionId id) const {
  const std::shared_ptr<ActionEntry> entry = checked_entry(id);
  ActionStats s;
  s.executions = entry->counters.executions.load(std::memory_order_relaxed);
  s.errors = entry->counters.errors.load(std::memory_order_relaxed);
  s.steps = entry->counters.steps.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.errors_by_status.size(); ++i) {
    s.errors_by_status[i] =
        entry->counters.by_status[i].load(std::memory_order_relaxed);
  }
  return s;
}

std::string Enclave::class_display_name(ClassId cls) const {
  if (cls == kInvalidClass) return "(unclassified)";
  if (cls >= registry_.size()) return "(unknown)";
  return registry_.name(cls).full();
}

telemetry::EnclaveTelemetry Enclave::telemetry_snapshot() const {
  telemetry::EnclaveTelemetry t;
  t.enclave = name_;
  t.telemetry_enabled = config_.telemetry.enabled;

  const EnclaveStats s = stats();
  t.packets = s.packets;
  t.matched = s.matched;
  t.dropped_by_action = s.dropped_by_action;
  t.message_entries_created = s.message_entries_created;
  t.message_entries_evicted = s.message_entries_evicted;
  t.message_entries_expired = s.message_entries_expired;

  const state::EpochDomain::Guard guard(epochs_);
  const RuleState& rules = committed(guard);
  // Message-state store section: totals across the installed actions'
  // FlowStores (eden_state_* series).
  for (const auto& entry : rules.actions) {
    if (entry == nullptr || entry->messages == nullptr) continue;
    const state::FlowStoreStats fs = entry->messages->stats();
    t.state.present = true;
    t.state.live += fs.live;
    t.state.created += fs.created;
    t.state.expired += fs.expired;
    t.state.evicted += fs.evicted;
    t.state.resizes += fs.resizes;
    t.state.probe_len.merge(fs.probe_len);
  }
  for (const auto& entry : rules.actions) {
    if (entry == nullptr) continue;
    telemetry::ActionTelemetry a;
    a.name = entry->name;
    a.native = entry->native;
    a.executions = entry->counters.executions.load(std::memory_order_relaxed);
    a.errors = entry->counters.errors.load(std::memory_order_relaxed);
    a.steps = entry->counters.steps.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < a.errors_by_status.size(); ++i) {
      a.errors_by_status[i] =
          entry->counters.by_status[i].load(std::memory_order_relaxed);
    }
    if (entry->latency_hist != nullptr) {
      a.has_histograms = true;
      a.latency_ns = entry->latency_hist->snapshot();
      if (entry->steps_hist != nullptr) {
        a.steps_hist = entry->steps_hist->snapshot();
      }
    }
    if (entry->profile != nullptr) {
      telemetry::ProgramProfile prof;
      {
        std::lock_guard plock(entry->profile_mutex);
        prof = *entry->profile;
      }
      if (!prof.empty()) {
        a.has_profile = true;
        a.profile_runs = prof.runs;
        a.profile_instructions = prof.total_count();
        a.hotspots = telemetry::hottest(prof);
        for (telemetry::HotSpot& h : a.hotspots) {
          h.text = lang::disassemble_instr(entry->program, h.pc);
        }
      }
    }
    t.actions.push_back(std::move(a));
  }

  if (class_counters_ != nullptr) {
    const std::size_t n = config_.telemetry.max_classes;
    for (std::size_t i = 0; i < n + 2; ++i) {
      const std::uint64_t matched =
          class_counters_[i].matched.load(std::memory_order_relaxed);
      const std::uint64_t dropped =
          class_counters_[i].dropped.load(std::memory_order_relaxed);
      if (matched == 0 && dropped == 0) continue;
      telemetry::ClassTelemetry c;
      c.matched = matched;
      c.dropped = dropped;
      if (i == n) {
        c.name = "(unclassified)";
      } else if (i == n + 1) {
        c.name = "(overflow)";
      } else {
        c.name = class_display_name(static_cast<ClassId>(i));
      }
      t.classes.push_back(std::move(c));
    }
  }

  if (trace_ != nullptr) {
    t.trace_sampled = trace_->total_recorded();
    t.trace_sample_every = config_.telemetry.trace_sample_every;
    std::vector<detail::TraceRecord> records = trace_->snapshot(
        [](const detail::TraceRecord& a, const detail::TraceRecord& b) {
          return a.ts_ns < b.ts_ns;
        });
    // Keep the newest trace_capacity records of the merged lanes.
    const std::size_t keep = std::min(records.size(), trace_->capacity());
    for (const detail::TraceRecord& r :
         std::span(records).subspan(records.size() - keep)) {
      telemetry::TraceEntry e;
      e.ts_ns = r.ts_ns;
      e.class_name = class_display_name(r.class_id);
      const bool live = r.action_id < rules.actions.size() &&
                        rules.actions[r.action_id] != nullptr;
      e.action = live ? rules.actions[r.action_id]->name
                      : "#" + std::to_string(r.action_id);
      e.status = std::string(
          lang::exec_status_name(static_cast<lang::ExecStatus>(r.status)));
      e.steps = r.steps;
      e.meta = r.meta;
      t.trace.push_back(std::move(e));
    }
  }
  return t;
}

telemetry::ProgramProfile Enclave::action_profile(ActionId id) const {
  const std::shared_ptr<ActionEntry> entry = checked_entry(id);
  telemetry::ProgramProfile out;
  if (entry->profile != nullptr) {
    std::lock_guard lock(entry->profile_mutex);
    out = *entry->profile;
  }
  return out;
}

std::optional<std::int64_t> Enclave::peek_message_state(
    ActionId id, std::int64_t msg_key, std::uint16_t slot) const {
  const std::shared_ptr<ActionEntry> entry = checked_entry(id);
  if (entry->messages == nullptr) return std::nullopt;
  // Peek semantics: find() does not stamp last_touch, so peeking never
  // keeps an idle entry alive. The guard pins the entry; its lock
  // orders the read against per-message writers.
  state::EpochDomain::Guard guard(entry->messages->domain());
  state::FlowStore::Entry* e = entry->messages->find(guard, msg_key);
  if (e == nullptr) return std::nullopt;
  std::lock_guard elock(e->lock);
  if (slot >= e->block.scalars.size()) return std::nullopt;
  return e->block.scalars[slot];
}

}  // namespace eden::core
