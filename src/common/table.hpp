// Generic fixed-capacity, fully-associative, LRU-evicting lookup table.
//
// SPP's Signature Table is a hardware table of this shape: a small number of
// entries, content-addressed by a key (page number), replaced LRU. The
// template keeps the bookkeeping in one place so the prefetcher only
// describes its payload. (Planaria's own tables are set-associative and live
// in SetAssocTable; TLP's Recent Page Table keeps its own columns.)
//
// Hardware probes every entry (a CAM), but the simulation does not have to:
// a BlockMap key -> slot shadow of the valid entries makes find / peek /
// hit-insert O(1). Recency is generation-stamped (a monotonic tick per
// touch, no list reordering), so a hit writes one word. The slot array, the
// eviction rule (first invalid slot in slot order, else minimum last_use)
// and the save_state byte layout are those of the linear implementation —
// tests/test_perf_structures.cpp pins the two against each other over
// randomized op sequences.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/block_map.hpp"

namespace planaria {

template <typename Key, typename Payload>
class LruTable {
 public:
  struct Entry {
    Key key{};
    Payload payload{};
    std::uint64_t last_use = 0;  ///< LRU timestamp (monotonic probe counter)
    bool valid = false;
  };

  explicit LruTable(std::size_t capacity) : entries_(capacity) {
    PLANARIA_ASSERT(capacity > 0);
  }

  std::size_t capacity() const { return entries_.size(); }

  /// Live entry count, maintained incrementally (a rescan here is O(capacity)
  /// per call; occupancy contracts probe this on hot paths). Debug builds
  /// cross-check the counter against a full scan.
  std::size_t size() const {
    PLANARIA_DASSERT(live_ == scanned_size());
    return live_;
  }

  /// Looks up `key`; refreshes LRU on hit. Returns nullptr on miss.
  Payload* find(const Key& key) {
    const std::uint32_t* s = index_.find(static_cast<std::uint64_t>(key));
    if (s == nullptr) return nullptr;
    Entry& e = entries_[*s];
    e.last_use = ++tick_;
    return &e.payload;
  }

  /// Lookup without touching LRU state (for inspection in tests/analysis).
  const Payload* peek(const Key& key) const {
    const std::uint32_t* s = index_.find(static_cast<std::uint64_t>(key));
    return s == nullptr ? nullptr : &entries_[*s].payload;
  }

  /// Inserts (or overwrites) key -> payload. If the table is full, evicts the
  /// LRU entry and returns it so the caller can run its eviction hook.
  std::optional<Entry> insert(const Key& key, Payload payload) {
    const std::uint32_t* hit = index_.find(static_cast<std::uint64_t>(key));
    if (hit != nullptr) {
      Entry& e = entries_[*hit];
      e.payload = std::move(payload);
      e.last_use = ++tick_;
      return std::nullopt;
    }
    std::optional<Entry> evicted;
    std::size_t slot = 0;
    if (live_ < entries_.size()) {
      while (entries_[slot].valid) ++slot;
      ++live_;
    } else {
      for (std::size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].last_use < entries_[slot].last_use) slot = i;
      }
      Entry& v = entries_[slot];
      index_.erase(static_cast<std::uint64_t>(v.key));
      evicted = std::move(v);
    }
    Entry& e = entries_[slot];
    e.key = key;
    e.payload = std::move(payload);
    e.last_use = ++tick_;
    e.valid = true;
    index_.insert(static_cast<std::uint64_t>(key),
                  static_cast<std::uint32_t>(slot));
    return evicted;
  }

  void clear() {
    for (auto& e : entries_) e.valid = false;
    tick_ = 0;
    live_ = 0;
    index_.clear();
  }

  /// Checkpoint: valid slots in ascending slot order with exact LRU
  /// timestamps, mirroring SetAssocTable::save_state (same canonical,
  /// byte-stable layout guarantees). Templated on the writer type so the
  /// common layer never depends on the snapshot module (the layering DAG in
  /// tools/lint/layers.conf forbids that edge); any encoder with the
  /// snapshot::Writer integer interface works.
  template <typename Writer, typename SavePayload>
  void save_state(Writer& w, SavePayload&& sp) const {
    w.u64(tick_);
    w.u64(static_cast<std::uint64_t>(live_));
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (!e.valid) continue;
      w.u64(static_cast<std::uint64_t>(i));
      w.u64(static_cast<std::uint64_t>(e.key));
      w.u64(e.last_use);
      sp(w, e.payload);
    }
  }

  /// Restore counterpart; malformed input is rejected through
  /// `r.fail(message)`, which must not return (snapshot::Reader throws
  /// SnapshotError). A key repeated across slots is malformed: the shadow
  /// holds one slot per key, so the twin would be unreachable.
  template <typename Reader, typename LoadPayload>
  void load_state(Reader& r, LoadPayload&& lp) {
    clear();
    tick_ = r.u64();
    const std::uint64_t count = r.u64();
    if (count > entries_.size()) {
      r.fail("lru table live count exceeds capacity");
    }
    std::uint64_t prev = 0;
    for (std::uint64_t n = 0; n < count; ++n) {
      const std::uint64_t i = r.u64();
      if (i >= entries_.size() || (n > 0 && i <= prev)) {
        r.fail("lru table slot index out of order");
      }
      prev = i;
      Entry& e = entries_[i];
      e.key = static_cast<Key>(r.u64());
      if (index_.contains(static_cast<std::uint64_t>(e.key))) {
        r.fail("lru table key repeated across slots");
      }
      index_.insert(static_cast<std::uint64_t>(e.key),
                    static_cast<std::uint32_t>(i));
      e.last_use = r.u64();
      e.payload = lp(r);
      e.valid = true;
    }
    live_ = static_cast<std::size_t>(count);
  }

 private:
  std::size_t scanned_size() const {
    std::size_t n = 0;
    for (const auto& e : entries_) n += e.valid ? 1 : 0;
    return n;
  }

  std::vector<Entry> entries_;
  common::BlockMap<std::uint32_t> index_;  ///< key -> slot of each valid entry
  std::uint64_t tick_ = 0;
  std::size_t live_ = 0;
};

}  // namespace planaria
