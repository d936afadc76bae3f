// Differential tests for the hot-path data structures (DESIGN.md §14).
//
// Every structure here replaced a straightforward implementation with an
// indexed or event-driven one whose only permissible difference is speed.
// These tests pin that claim directly: each indexed structure is driven
// through long randomized operation sequences in lockstep with a reference
// implementation that keeps the original linear-scan semantics, and every
// return value plus the canonical save_state encoding must agree at every
// step. The DRAM section replays identical request schedules — shaped by
// all six fault classes — through a live channel and a twin rebuilt from its
// own snapshot before every advance, under both per-cycle stepping and the
// simulator's coarse event jumps: the round-trip must be exactly invisible,
// never merely close.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/block_map.hpp"
#include "common/set_table.hpp"
#include "common/table.hpp"
#include "dram/channel.hpp"
#include "dram/config.hpp"
#include "fault/fault.hpp"
#include "snapshot/snapshot.hpp"

namespace planaria {
namespace {

using Payload = std::uint64_t;

void save_payload(snapshot::Writer& w, const Payload& p) { w.u64(p); }

// ------------------------------------------------------------ reference LRU

// The original fully-associative LruTable: linear scan for every lookup,
// victim = first invalid slot in slot order, else minimum last_use (lowest
// index on ties). Kept deliberately naive — its simplicity is the spec.
class RefLruTable {
 public:
  struct Entry {
    std::uint64_t key = 0;
    Payload payload = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  explicit RefLruTable(std::size_t capacity) : entries_(capacity) {}

  Payload* find(std::uint64_t key) {
    for (auto& e : entries_) {
      if (e.valid && e.key == key) {
        e.last_use = ++tick_;
        return &e.payload;
      }
    }
    return nullptr;
  }

  const Payload* peek(std::uint64_t key) const {
    for (const auto& e : entries_) {
      if (e.valid && e.key == key) return &e.payload;
    }
    return nullptr;
  }

  std::optional<Entry> insert(std::uint64_t key, Payload payload) {
    for (auto& e : entries_) {
      if (e.valid && e.key == key) {
        e.payload = payload;
        e.last_use = ++tick_;
        return std::nullopt;
      }
    }
    std::size_t slot = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].valid) {
        slot = i;
        break;
      }
    }
    std::optional<Entry> evicted;
    if (slot == entries_.size()) {
      slot = 0;
      for (std::size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].last_use < entries_[slot].last_use) slot = i;
      }
      evicted = entries_[slot];
    }
    Entry& e = entries_[slot];
    e.key = key;
    e.payload = payload;
    e.last_use = ++tick_;
    e.valid = true;
    return evicted;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& e : entries_) n += e.valid ? 1 : 0;
    return n;
  }

  void clear() {
    for (auto& e : entries_) e.valid = false;
    tick_ = 0;
  }

  void save_state(snapshot::Writer& w) const {
    w.u64(tick_);
    w.u64(size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (!e.valid) continue;
      w.u64(i);
      w.u64(e.key);
      w.u64(e.last_use);
      w.u64(e.payload);
    }
  }

 private:
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
};

// ------------------------------------------------------ reference set-assoc

// Array-of-structs SetAssocTable: same set hash, but each entry carries its
// own key and every scan walks the entries, where the real table scans a
// separate key column.
class RefSetAssocTable {
 public:
  RefSetAssocTable(std::size_t sets, int ways)
      : sets_(sets), ways_(ways),
        entries_(sets * static_cast<std::size_t>(ways)) {}

  Payload* find(std::uint64_t key) {
    Entry* base = set_base(key);
    for (int w = 0; w < ways_; ++w) {
      Entry& e = base[w];
      if (e.valid && e.key == key) {
        e.last_use = ++tick_;
        return &e.payload;
      }
    }
    return nullptr;
  }

  const Payload* peek(std::uint64_t key) const {
    const Entry* base = set_base(key);
    for (int w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].key == key) return &base[w].payload;
    }
    return nullptr;
  }

  std::optional<std::pair<std::uint64_t, Payload>> insert(std::uint64_t key,
                                                          Payload payload) {
    Entry* base = set_base(key);
    for (int w = 0; w < ways_; ++w) {
      Entry& e = base[w];
      if (e.valid && e.key == key) {
        e.payload = payload;
        e.last_use = ++tick_;
        return std::nullopt;
      }
    }
    Entry* victim = nullptr;
    for (int w = 0; w < ways_; ++w) {
      Entry& e = base[w];
      if (!e.valid) {
        if (victim == nullptr || victim->valid) victim = &e;
      } else if (victim == nullptr ||
                 (victim->valid && e.last_use < victim->last_use)) {
        victim = &e;
      }
    }
    std::optional<std::pair<std::uint64_t, Payload>> evicted;
    if (victim->valid) evicted.emplace(victim->key, victim->payload);
    victim->key = key;
    victim->payload = payload;
    victim->last_use = ++tick_;
    victim->valid = true;
    return evicted;
  }

  std::optional<Payload> erase(std::uint64_t key) {
    Entry* base = set_base(key);
    for (int w = 0; w < ways_; ++w) {
      Entry& e = base[w];
      if (e.valid && e.key == key) {
        e.valid = false;
        return e.payload;
      }
    }
    return std::nullopt;
  }

  template <typename Pred, typename OnEvict>
  void evict_if(Pred&& pred, OnEvict&& on_evict) {
    for (auto& e : entries_) {
      if (e.valid && pred(e.key, e.payload)) {
        e.valid = false;
        on_evict(e.key, std::move(e.payload));
      }
    }
  }

  void save_state(snapshot::Writer& w) const {
    std::uint64_t live = 0;
    for (const auto& e : entries_) live += e.valid ? 1 : 0;
    w.u64(tick_);
    w.u64(live);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (!e.valid) continue;
      w.u64(i);
      w.u64(e.key);
      w.u64(e.last_use);
      w.u64(e.payload);
    }
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    Payload payload = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
  }

  Entry* set_base(std::uint64_t key) {
    const std::size_t set = mix(key) & (sets_ - 1);
    return &entries_[set * static_cast<std::size_t>(ways_)];
  }
  const Entry* set_base(std::uint64_t key) const {
    return const_cast<RefSetAssocTable*>(this)->set_base(key);
  }

  std::size_t sets_;
  int ways_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
};

std::vector<std::uint8_t> lru_bytes(const LruTable<std::uint64_t, Payload>& t) {
  snapshot::Writer w;
  t.save_state(w, [](snapshot::Writer& ww, const Payload& p) { ww.u64(p); });
  return w.buffer();
}

std::vector<std::uint8_t> ref_lru_bytes(const RefLruTable& t) {
  snapshot::Writer w;
  t.save_state(w);
  return w.buffer();
}

// --------------------------------------------------------------- LRU table

TEST(DifferentialLruTable, MatchesLinearScanReferenceOverRandomOps) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    std::mt19937_64 rng(seed);
    constexpr std::size_t kCapacity = 32;
    LruTable<std::uint64_t, Payload> indexed(kCapacity);
    RefLruTable reference(kCapacity);
    // Key universe 3x capacity: plenty of eviction pressure plus repeat hits.
    std::uniform_int_distribution<std::uint64_t> key_dist(0, 3 * kCapacity - 1);
    std::uniform_int_distribution<int> op_dist(0, 99);
    for (int step = 0; step < 6000; ++step) {
      const std::uint64_t key = key_dist(rng);
      const int op = op_dist(rng);
      if (op < 45) {
        Payload* a = indexed.find(key);
        Payload* b = reference.find(key);
        ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
        if (a != nullptr) {
          ASSERT_EQ(*a, *b) << "step " << step;
        }
      } else if (op < 80) {
        const Payload payload = rng();
        auto a = indexed.insert(key, payload);
        auto b = reference.insert(key, payload);
        ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
        if (a.has_value()) {
          ASSERT_EQ(a->key, b->key) << "step " << step;
          ASSERT_EQ(a->payload, b->payload) << "step " << step;
          ASSERT_EQ(a->last_use, b->last_use) << "step " << step;
        }
      } else if (op < 99) {
        const Payload* a = indexed.peek(key);
        const Payload* b = reference.peek(key);
        ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
        if (a != nullptr) {
          ASSERT_EQ(*a, *b) << "step " << step;
        }
      } else {
        indexed.clear();
        reference.clear();
      }
      ASSERT_EQ(indexed.size(), reference.size()) << "step " << step;
      if (step % 97 == 0) {
        ASSERT_EQ(lru_bytes(indexed), ref_lru_bytes(reference))
            << "snapshot divergence at step " << step;
      }
      if (step % 500 == 499) {
        // Reload in lockstep: the random ops continue on a table whose
        // key -> slot shadow was rebuilt from its own snapshot.
        const auto bytes = lru_bytes(indexed);
        LruTable<std::uint64_t, Payload> reloaded(kCapacity);
        snapshot::Reader r(bytes);
        reloaded.load_state(r, [](snapshot::Reader& rr) { return rr.u64(); });
        r.require_end();
        indexed = std::move(reloaded);
        ASSERT_EQ(lru_bytes(indexed), bytes) << "reload at step " << step;
      }
    }
    EXPECT_EQ(lru_bytes(indexed), ref_lru_bytes(reference));
  }
}

// ---------------------------------------------------------- set-assoc table

TEST(DifferentialSetAssocTable, MatchesWayScanReferenceOverRandomOps) {
  for (std::uint64_t seed : {7ull, 77ull, 777ull}) {
    std::mt19937_64 rng(seed);
    constexpr std::size_t kSets = 8;
    constexpr int kWays = 4;
    SetAssocTable<std::uint64_t, Payload> indexed(kSets, kWays);
    RefSetAssocTable reference(kSets, kWays);
    std::uniform_int_distribution<std::uint64_t> key_dist(0, 127);
    std::uniform_int_distribution<int> op_dist(0, 99);
    const auto snap_indexed = [&] {
      snapshot::Writer w;
      indexed.save_state(w, save_payload);
      return w.buffer();
    };
    const auto snap_reference = [&] {
      snapshot::Writer w;
      reference.save_state(w);
      return w.buffer();
    };
    for (int step = 0; step < 6000; ++step) {
      const std::uint64_t key = key_dist(rng);
      const int op = op_dist(rng);
      if (op < 40) {
        Payload* a = indexed.find(key);
        Payload* b = reference.find(key);
        ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
        if (a != nullptr) {
          ASSERT_EQ(*a, *b) << "step " << step;
        }
      } else if (op < 75) {
        const Payload payload = rng();
        auto a = indexed.insert(key, payload);
        auto b = reference.insert(key, payload);
        ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
        if (a.has_value()) {
          ASSERT_EQ(a->first, b->first) << "step " << step;
          ASSERT_EQ(a->second, b->second) << "step " << step;
        }
      } else if (op < 88) {
        ASSERT_EQ(indexed.erase(key), reference.erase(key)) << "step " << step;
      } else if (op < 97) {
        const Payload* a = indexed.peek(key);
        const Payload* b = reference.peek(key);
        ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
        if (a != nullptr) {
          ASSERT_EQ(*a, *b) << "step " << step;
        }
      } else {
        std::vector<std::pair<std::uint64_t, Payload>> got_a;
        std::vector<std::pair<std::uint64_t, Payload>> got_b;
        const auto pred = [](std::uint64_t, const Payload& p) {
          return p % 5 == 0;
        };
        indexed.evict_if(pred, [&](std::uint64_t k, Payload&& p) {
          got_a.emplace_back(k, p);
        });
        reference.evict_if(pred, [&](std::uint64_t k, Payload&& p) {
          got_b.emplace_back(k, p);
        });
        ASSERT_EQ(got_a, got_b) << "step " << step;
      }
      if (step % 101 == 0) {
        ASSERT_EQ(snap_indexed(), snap_reference())
            << "snapshot divergence at step " << step;
      }
      if (step % 500 == 499) {
        // Reload in lockstep: the random ops continue on a table rebuilt
        // from its own snapshot (key column, recency stamps, live count).
        const auto bytes = snap_indexed();
        SetAssocTable<std::uint64_t, Payload> reloaded(kSets, kWays);
        snapshot::Reader r(bytes);
        reloaded.load_state(r, [](snapshot::Reader& rr) { return rr.u64(); });
        r.require_end();
        indexed = std::move(reloaded);
        ASSERT_EQ(snap_indexed(), bytes) << "reload at step " << step;
      }
    }
    EXPECT_EQ(snap_indexed(), snap_reference());
  }
}

// ---------------------------------------------------------------- BlockMap

TEST(DifferentialBlockMap, MatchesUnorderedMapOverRandomOps) {
  for (std::uint64_t seed : {3ull, 1003ull}) {
    std::mt19937_64 rng(seed);
    common::BlockMap<std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> reference;
    // Includes block 0 — a legal key the open-addressing cells must not
    // confuse with "empty".
    std::uniform_int_distribution<std::uint64_t> key_dist(0, 499);
    std::uniform_int_distribution<int> op_dist(0, 99);
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t key = key_dist(rng);
      const int op = op_dist(rng);
      if (op < 35) {
        const std::uint64_t value = rng();
        if (reference.find(key) == reference.end()) {
          map.insert(key, value);
          reference.emplace(key, value);
        }
      } else if (op < 60) {
        // BlockMap::erase is a no-op on absent keys; size parity below (and
        // the final content sweep) pins that it removed exactly the right one.
        map.erase(key);
        reference.erase(key);
      } else if (op < 90) {
        const std::uint64_t* got = map.find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(got != nullptr, it != reference.end()) << "step " << step;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second) << "step " << step;
        }
      } else if (op < 99) {
        ASSERT_EQ(map.contains(key), reference.count(key) > 0)
            << "step " << step;
      } else if (step % 4000 == 3999) {
        map.clear();
        reference.clear();
      }
      ASSERT_EQ(map.size(), reference.size()) << "step " << step;
    }
    // Full-content sweep: every surviving entry agrees.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> contents;
    map.for_each([&](std::uint64_t k, const std::uint64_t& v) {
      contents.emplace_back(k, v);
    });
    ASSERT_EQ(contents.size(), reference.size());
    for (const auto& [k, v] : contents) {
      const auto it = reference.find(k);
      ASSERT_NE(it, reference.end());
      EXPECT_EQ(v, it->second);
    }
  }
}


// ------------------------------------------------- DRAM advance equivalence

// The channel's scheduling semantics are deliberately defined relative to
// its own clock, which only advances at the horizons the caller passes to
// advance(): the FR-FCFS anti-starvation age and the refresh-postponement
// debt are both measured against now_. Two channels fed *different* advance
// granularities therefore legitimately diverge (a starvation flip or a
// forced refresh lands wherever the caller's horizon put the clock) — that
// is inherited controller behavior the bit-identity contract freezes. What
// must hold is that a snapshot round-trip is invisible: for the SAME
// sequence of advance() calls, a live channel behaves bit-identically to one
// rebuilt from its own snapshot before every call. These tests pin that
// under the two call patterns that matter — per-cycle stepping (a round-trip
// before almost every cycle) and coarse event jumps (the simulator's real
// pattern) — across request schedules shaped by all six fault classes.
//
// The round-trip rebuilds the one piece of derived state, the write-queue
// membership shadow, from the serialized queue, and doubles as a
// restore-purity stress on 10^4 distinct mid-flight channel states.

// One scheduled interaction with the channel: either a request submission or
// a fault-injection stall, at a fixed cycle.
struct PlanEvent {
  Cycle at = 0;
  bool stall = false;
  Cycle stall_cycles = 0;
  dram::DramRequest req;
};

// Builds a request/stall schedule whose shape exercises the perturbation each
// fault class introduces. The two pattern-flip classes never touch the DRAM
// request stream — for those the plan is simply a distinct random workload,
// so every class still contributes an independent equivalence trial.
std::vector<PlanEvent> make_plan(fault::FaultClass fault_class) {
  std::mt19937_64 rng(0x9E3779B97F4A7C15ull ^
                      static_cast<std::uint64_t>(fault_class));
  std::uniform_int_distribution<std::uint64_t> block_dist(0, (1 << 18) - 1);
  std::uniform_int_distribution<int> gap_dist(0, 120);
  std::uniform_int_distribution<int> pct(0, 99);
  std::vector<PlanEvent> plan;
  Cycle t = 0;
  for (int i = 0; i < 220; ++i) {
    t += static_cast<Cycle>(gap_dist(rng));
    PlanEvent ev;
    ev.at = t;
    const int roll = pct(rng);
    if (fault_class == fault::FaultClass::kDramStall && roll < 8) {
      ev.stall = true;
      ev.stall_cycles = 50 + static_cast<Cycle>(pct(rng));
      plan.push_back(ev);
      continue;
    }
    ev.req.local_block = block_dist(rng);
    ev.req.arrival = t;
    ev.req.is_write = roll >= 70 && roll < 85;
    ev.req.is_prefetch = !ev.req.is_write && roll >= 40;
    ev.req.tag = static_cast<std::uint64_t>(i);
    switch (fault_class) {
      case fault::FaultClass::kTraceCorruption:
        // Corrupted arrivals: bursts of requests landing on the same cycle.
        if (roll < 20) ev.at = ev.req.arrival = t = std::max<Cycle>(t, 1) - 1;
        break;
      case fault::FaultClass::kPrefetchDrop:
        // Dropped prefetches: the request never reaches the channel.
        if (ev.req.is_prefetch && roll % 3 == 0) continue;
        break;
      case fault::FaultClass::kPrefetchDelay:
        // Delayed prefetches arrive late, bunched behind younger demands.
        if (ev.req.is_prefetch) {
          ev.at += 400;
          ev.req.arrival += 400;
        }
        break;
      default:
        break;
    }
    plan.push_back(ev);
  }
  // Delayed prefetches can land out of order relative to later demands; the
  // channel requires monotonic arrivals, so replay the plan in time order.
  std::stable_sort(plan.begin(), plan.end(),
                   [](const PlanEvent& a, const PlanEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

std::vector<std::uint8_t> channel_bytes(const dram::DramChannel& ch) {
  snapshot::Writer w;
  ch.save_state(w);
  return w.buffer();
}

// Rebuilds the channel from its own canonical snapshot, so every piece of
// derived state (the write-queue membership shadow) is recomputed from the
// serialized ground truth.
void scrub_derived_state(dram::DramChannel& ch) {
  const std::vector<std::uint8_t> bytes = channel_bytes(ch);
  snapshot::Reader r(bytes);
  ch.load_state(r);
}

struct ReplayResult {
  std::vector<dram::DramCompletion> completions;
  std::vector<std::uint8_t> final_state;
};

/// Replays `plan` through a fresh channel. `cycle_step` advances the clock
/// one cycle at a time instead of jumping to each event; `scrub` round-trips
/// the channel through a snapshot before every advance.
ReplayResult replay(const std::vector<PlanEvent>& plan, bool cycle_step,
                    bool scrub) {
  dram::DramConfig config;  // Table 1 defaults — refresh stays live
  dram::DramChannel ch(config);
  ReplayResult result;
  std::vector<dram::DramCompletion> scratch;
  const auto advance_to = [&](Cycle target) {
    if (cycle_step) {
      for (Cycle t = ch.now(); t < target; ++t) {
        if (scrub) scrub_derived_state(ch);
        ch.advance(t + 1);
      }
    } else {
      if (scrub) scrub_derived_state(ch);
      ch.advance(target);
    }
  };
  for (const PlanEvent& ev : plan) {
    advance_to(ev.at);
    if (ev.stall) {
      ch.inject_stall(ev.stall_cycles);
    } else {
      ch.submit(ev.req);
    }
    if (ch.has_completions()) {
      ch.take_completions(scratch);
      result.completions.insert(result.completions.end(), scratch.begin(),
                                scratch.end());
    }
  }
  // A generous tail horizon: long enough for every read (and any write the
  // drain hysteresis chooses to issue) to complete.
  advance_to(plan.back().at + 200000);
  ch.take_completions(scratch);
  result.completions.insert(result.completions.end(), scratch.begin(),
                            scratch.end());
  result.final_state = channel_bytes(ch);
  return result;
}

void expect_same_replay(const ReplayResult& a, const ReplayResult& b) {
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    const dram::DramCompletion& ca = a.completions[i];
    const dram::DramCompletion& cb = b.completions[i];
    ASSERT_EQ(ca.tag, cb.tag) << "completion " << i;
    ASSERT_EQ(ca.arrival, cb.arrival) << "completion " << i;
    ASSERT_EQ(ca.finish, cb.finish) << "completion " << i;
    ASSERT_EQ(ca.is_write, cb.is_write) << "completion " << i;
    ASSERT_EQ(ca.is_prefetch, cb.is_prefetch) << "completion " << i;
    ASSERT_EQ(ca.row_hit, cb.row_hit) << "completion " << i;
    ASSERT_EQ(ca.forwarded, cb.forwarded) << "completion " << i;
  }
  // The strongest form: the full serialized channel state (banks, queues,
  // timing horizons, counters) is byte-identical.
  EXPECT_EQ(a.final_state, b.final_state);
}

TEST(DifferentialDram,
     SnapshotRoundTripBeforeEveryCycleStepIsInvisibleAcrossFaultClasses) {
  for (int fc = 0; fc < fault::kFaultClassCount; ++fc) {
    const auto fault_class = static_cast<fault::FaultClass>(fc);
    SCOPED_TRACE(fault::fault_class_name(fault_class));
    const std::vector<PlanEvent> plan = make_plan(fault_class);
    const ReplayResult live =
        replay(plan, /*cycle_step=*/true, /*scrub=*/false);
    const ReplayResult scrubbed =
        replay(plan, /*cycle_step=*/true, /*scrub=*/true);
    expect_same_replay(live, scrubbed);
  }
}

TEST(DifferentialDram,
     SnapshotRoundTripBeforeEveryEventJumpIsInvisibleAcrossFaultClasses) {
  for (int fc = 0; fc < fault::kFaultClassCount; ++fc) {
    const auto fault_class = static_cast<fault::FaultClass>(fc);
    SCOPED_TRACE(fault::fault_class_name(fault_class));
    const std::vector<PlanEvent> plan = make_plan(fault_class);
    const ReplayResult live =
        replay(plan, /*cycle_step=*/false, /*scrub=*/false);
    const ReplayResult scrubbed =
        replay(plan, /*cycle_step=*/false, /*scrub=*/true);
    expect_same_replay(live, scrubbed);
  }
}

}  // namespace
}  // namespace planaria
