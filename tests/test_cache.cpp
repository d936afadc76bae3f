// Unit tests for the system cache: geometry validation, hit/miss behaviour,
// replacement policies, prefetch accounting, writebacks, and pollution
// tracking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <unordered_set>
#include <vector>

#include "cache/replacement.hpp"
#include "cache/system_cache.hpp"
#include "snapshot/snapshot.hpp"

namespace planaria::cache {
namespace {

CacheConfig tiny_config() {
  CacheConfig config;
  config.size_bytes = 1 << 12;  // 4KB = 64 lines
  config.ways = 4;              // 16 sets
  return config;
}

// ------------------------------------------------------------------- config

TEST(CacheConfig, Table1GeometryValidates) {
  CacheConfig config;  // 1MB slice, 16-way, 64B
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.sets(), 1024u);
}

TEST(CacheConfig, RejectsNonPowerOfTwoSize) {
  CacheConfig config;
  config.size_bytes = 3 << 20;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(CacheConfig, RejectsZeroWays) {
  CacheConfig config;
  config.ways = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ------------------------------------------------------------ basic behavior

TEST(SystemCache, MissThenFillThenHit) {
  SystemCache cache(tiny_config());
  EXPECT_FALSE(cache.access(42, AccessType::kRead).hit);
  cache.fill(42, FillSource::kDemand);
  EXPECT_TRUE(cache.access(42, AccessType::kRead).hit);
  EXPECT_EQ(cache.stats().demand_accesses, 2u);
  EXPECT_EQ(cache.stats().demand_hits, 1u);
  EXPECT_EQ(cache.stats().demand_misses, 1u);
}

TEST(SystemCache, ContainsReflectsFills) {
  SystemCache cache(tiny_config());
  EXPECT_FALSE(cache.contains(7));
  cache.fill(7, FillSource::kDemand);
  EXPECT_TRUE(cache.contains(7));
}

TEST(SystemCache, EvictionWithinSet) {
  auto config = tiny_config();
  SystemCache cache(config);
  const std::uint32_t sets = config.sets();
  // Fill one set beyond capacity: blocks k*sets map to set 0.
  for (int i = 0; i <= config.ways; ++i) {
    cache.fill(static_cast<std::uint64_t>(i) * sets, FillSource::kDemand);
  }
  int resident = 0;
  for (int i = 0; i <= config.ways; ++i) {
    resident += cache.contains(static_cast<std::uint64_t>(i) * sets) ? 1 : 0;
  }
  EXPECT_EQ(resident, config.ways);
}

TEST(SystemCache, LruEvictsOldest) {
  auto config = tiny_config();
  config.ways = 2;
  SystemCache cache(config);
  const std::uint32_t sets = config.sets();
  cache.fill(0 * sets, FillSource::kDemand);
  cache.fill(1 * sets, FillSource::kDemand);
  cache.access(0 * sets, AccessType::kRead);  // refresh 0
  cache.fill(2 * sets, FillSource::kDemand);  // evicts 1
  EXPECT_TRUE(cache.contains(0 * sets));
  EXPECT_FALSE(cache.contains(1 * sets));
}

TEST(SystemCache, RedundantFillCounted) {
  SystemCache cache(tiny_config());
  cache.fill(3, FillSource::kDemand);
  cache.fill(3, FillSource::kPrefetchSlp);
  EXPECT_EQ(cache.redundant_prefetch_fills(), 1u);
  EXPECT_EQ(cache.stats().prefetch_fills, 0u);
}

// --------------------------------------------------------------- write path

TEST(SystemCache, WriteMissDoesNotAllocate) {
  SystemCache cache(tiny_config());
  EXPECT_FALSE(cache.access(5, AccessType::kWrite).hit);
  EXPECT_FALSE(cache.contains(5));
  EXPECT_EQ(cache.stats().write_misses, 1u);
}

TEST(SystemCache, WriteHitDirtiesLine) {
  auto config = tiny_config();
  config.ways = 1;
  SystemCache cache(config);
  const std::uint32_t sets = config.sets();
  cache.fill(0, FillSource::kDemand);
  cache.access(0, AccessType::kWrite);
  EXPECT_EQ(cache.stats().write_hits, 1u);
  // Evicting the dirty line must produce a writeback.
  const auto result = cache.fill(sets, FillSource::kDemand);
  EXPECT_TRUE(result.has_writeback);
  EXPECT_EQ(result.writeback_block, 0u);
  EXPECT_EQ(cache.stats().dirty_writebacks, 1u);
}

TEST(SystemCache, CleanEvictionHasNoWriteback) {
  auto config = tiny_config();
  config.ways = 1;
  SystemCache cache(config);
  cache.fill(0, FillSource::kDemand);
  const auto result = cache.fill(config.sets(), FillSource::kDemand);
  EXPECT_FALSE(result.has_writeback);
}

// ------------------------------------------------------- prefetch accounting

TEST(SystemCache, PrefetchHitAttributedToSource) {
  SystemCache cache(tiny_config());
  cache.fill(10, FillSource::kPrefetchSlp);
  cache.fill(11, FillSource::kPrefetchTlp);
  cache.fill(12, FillSource::kPrefetchOther);
  auto r = cache.access(10, AccessType::kRead);
  EXPECT_TRUE(r.hit);
  EXPECT_TRUE(r.first_use_of_prefetch);
  EXPECT_EQ(r.fill_source, FillSource::kPrefetchSlp);
  cache.access(11, AccessType::kRead);
  cache.access(12, AccessType::kRead);
  EXPECT_EQ(cache.stats().hits_on_slp, 1u);
  EXPECT_EQ(cache.stats().hits_on_tlp, 1u);
  EXPECT_EQ(cache.stats().hits_on_other_pf, 1u);
  EXPECT_EQ(cache.stats().demand_hits_on_prefetch, 3u);
}

TEST(SystemCache, SecondHitIsNotFirstUse) {
  SystemCache cache(tiny_config());
  cache.fill(10, FillSource::kPrefetchSlp);
  EXPECT_TRUE(cache.access(10, AccessType::kRead).first_use_of_prefetch);
  EXPECT_FALSE(cache.access(10, AccessType::kRead).first_use_of_prefetch);
  EXPECT_EQ(cache.stats().demand_hits_on_prefetch, 1u);
}

TEST(SystemCache, WriteConsumesPrefetchFlagWithoutCredit) {
  SystemCache cache(tiny_config());
  cache.fill(10, FillSource::kPrefetchSlp);
  cache.access(10, AccessType::kWrite);
  EXPECT_FALSE(cache.is_unused_prefetch(10));
  EXPECT_EQ(cache.stats().demand_hits_on_prefetch, 0u);
}

TEST(SystemCache, UnusedPrefetchEvictionCounted) {
  auto config = tiny_config();
  config.ways = 1;
  SystemCache cache(config);
  cache.fill(0, FillSource::kPrefetchSlp);
  cache.fill(config.sets(), FillSource::kDemand);  // evicts unused prefetch
  EXPECT_EQ(cache.stats().prefetch_unused_evictions, 1u);
}

TEST(SystemCache, AccuracyAndCoverageFormulas) {
  SystemCache cache(tiny_config());
  cache.fill(1, FillSource::kPrefetchSlp);
  cache.fill(2, FillSource::kPrefetchSlp);
  cache.access(1, AccessType::kRead);   // useful prefetch
  cache.access(99, AccessType::kRead);  // demand miss
  EXPECT_DOUBLE_EQ(cache.stats().prefetch_accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(cache.stats().prefetch_coverage(), 0.5);
}

TEST(SystemCache, PollutionMissDetected) {
  auto config = tiny_config();
  config.ways = 1;
  SystemCache cache(config);
  cache.fill(0, FillSource::kDemand);          // useful line
  cache.fill(config.sets(), FillSource::kPrefetchTlp);  // evicts it
  EXPECT_FALSE(cache.access(0, AccessType::kRead).hit);
  EXPECT_EQ(cache.stats().pollution_misses, 1u);
}

// Reference model of the pollution filter: a FIFO of the last 16384 demand
// blocks displaced by prefetch fills, shadowed by a set. Popping a block
// erases it from the set even while a twin is still queued.
struct RefPollutionFilter {
  static constexpr std::size_t kCap = 1 << 14;
  std::deque<std::uint64_t> fifo;
  std::unordered_set<std::uint64_t> set;
  std::uint64_t tracked = 0;
  std::uint64_t wraps_over_duplicate = 0;

  void track(std::uint64_t block) {
    ++tracked;
    if (fifo.size() == kCap) {
      const std::uint64_t old = fifo.front();
      fifo.pop_front();
      if (std::find(fifo.begin(), fifo.end(), old) != fifo.end()) {
        ++wraps_over_duplicate;
      }
      set.erase(old);
    }
    fifo.push_back(block);
    set.insert(block);
  }

  /// The filter's snapshot tail: the FIFO in ring-array order, its head, and
  /// the sorted members.
  std::vector<std::uint8_t> encoding() const {
    const std::size_t head =
        fifo.size() < kCap ? 0 : static_cast<std::size_t>(tracked % kCap);
    std::vector<std::uint64_t> ring(fifo.size());
    for (std::size_t k = 0; k < fifo.size(); ++k) {
      ring[(head + k) % ring.size()] = fifo[k];
    }
    std::vector<std::uint64_t> members(set.begin(), set.end());
    std::sort(members.begin(), members.end());
    snapshot::Writer w;
    w.u64(ring.size());
    for (const std::uint64_t v : ring) w.u64(v);
    w.u64(head);
    w.u64(members.size());
    for (const std::uint64_t v : members) w.u64(v);
    return w.buffer();
  }
};

std::vector<std::uint8_t> cache_bytes(const SystemCache& cache) {
  snapshot::Writer w;
  cache.save_state(w);
  return w.buffer();
}

bool ends_with(const std::vector<std::uint8_t>& bytes,
               const std::vector<std::uint8_t>& tail) {
  return bytes.size() >= tail.size() &&
         std::equal(tail.begin(), tail.end(), bytes.end() - tail.size());
}

TEST(SystemCache, PollutionFilterMatchesFifoAndSetReference) {
  // One way per set: a prefetch fill into a demand block's set always
  // evicts that block, so every iteration tracks exactly one eviction.
  auto config = tiny_config();
  config.ways = 1;
  SystemCache cache(config);
  RefPollutionFilter ref;
  std::uint64_t ref_pollution_misses = 0;
  std::vector<std::uint64_t> demanded;
  std::uint64_t fresh = 1000;
  // Every seventh demand revisits the block displaced three iterations ago:
  // a pollution miss while that block is a member, and a duplicate in the
  // FIFO that the ring later wraps over.
  const auto step = [&](SystemCache& c, std::size_t i) {
    const std::uint64_t block =
        i % 7 == 0 && demanded.size() >= 3 ? demanded[demanded.size() - 3]
                                           : fresh++;
    demanded.push_back(block);
    if (!c.access(block, AccessType::kRead).hit) {
      if (ref.set.count(block) != 0) ++ref_pollution_misses;
      c.fill(block, FillSource::kDemand);
    }
    c.fill(block + (1ull << 40), FillSource::kPrefetchTlp);
    ref.track(block);
  };
  constexpr std::size_t kFirst = RefPollutionFilter::kCap + 4000;
  for (std::size_t i = 0; i < kFirst; ++i) step(cache, i);
  ASSERT_GT(ref.wraps_over_duplicate, 0u);
  ASSERT_GT(ref_pollution_misses, 0u);
  EXPECT_EQ(cache.stats().pollution_misses, ref_pollution_misses);
  const auto bytes = cache_bytes(cache);
  EXPECT_TRUE(ends_with(bytes, ref.encoding()));

  // save -> load -> save is byte-identical, and the restored filter keeps
  // tracking in lockstep with the reference.
  SystemCache restored(config);
  snapshot::Reader r(bytes);
  restored.load_state(r);
  r.require_end();
  ASSERT_EQ(cache_bytes(restored), bytes);
  for (std::size_t i = kFirst; i < kFirst + 3000; ++i) step(restored, i);
  EXPECT_EQ(restored.stats().pollution_misses, ref_pollution_misses);
  EXPECT_TRUE(ends_with(cache_bytes(restored), ref.encoding()));
}

TEST(SystemCache, IsUnusedPrefetchLifecycle) {
  SystemCache cache(tiny_config());
  cache.fill(4, FillSource::kPrefetchTlp);
  EXPECT_TRUE(cache.is_unused_prefetch(4));
  cache.access(4, AccessType::kRead);
  EXPECT_FALSE(cache.is_unused_prefetch(4));
  EXPECT_FALSE(cache.is_unused_prefetch(12345));  // absent block
}

// -------------------------------------------------------------- replacement

class ReplacementTest : public ::testing::TestWithParam<ReplacementKind> {};

TEST_P(ReplacementTest, VictimInRange) {
  auto policy = make_replacement(GetParam(), 4, 4, 7);
  for (std::uint32_t set = 0; set < 4; ++set) {
    for (int i = 0; i < 4; ++i) policy->on_fill(set, i, false);
    for (int i = 0; i < 20; ++i) {
      const int v = policy->victim(set);
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 4);
    }
  }
}

TEST_P(ReplacementTest, CacheRunsUnderEveryPolicy) {
  auto config = tiny_config();
  config.replacement = GetParam();
  SystemCache cache(config);
  // 40 distinct blocks over 16 sets x 4 ways: fits, so every policy must
  // produce hits after the first pass (a 200-block cyclic sweep would be the
  // LRU-pathological case instead).
  for (std::uint64_t b = 0; b < 512; ++b) {
    if (!cache.access(b % 40, AccessType::kRead).hit) {
      cache.fill(b % 40, FillSource::kDemand);
    }
  }
  EXPECT_GT(cache.stats().demand_hits, 0u);
  EXPECT_GT(cache.stats().demand_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplacementTest,
                         ::testing::Values(ReplacementKind::kLru,
                                           ReplacementKind::kRandom,
                                           ReplacementKind::kSrrip,
                                           ReplacementKind::kDrrip),
                         [](const auto& param_info) {
                           return std::string(
                               replacement_name(param_info.param));
                         });

TEST(Replacement, SrripPrefetchInsertedAtDistantRrpv) {
  // A prefetch fill must be the preferred victim over a demand fill.
  auto policy = make_replacement(ReplacementKind::kSrrip, 1, 2, 1);
  policy->on_fill(0, 0, /*prefetch=*/false);
  policy->on_fill(0, 1, /*prefetch=*/true);
  EXPECT_EQ(policy->victim(0), 1);
}

TEST(Replacement, LruVictimIsLeastRecent) {
  auto policy = make_replacement(ReplacementKind::kLru, 1, 3, 1);
  policy->on_fill(0, 0, false);
  policy->on_fill(0, 1, false);
  policy->on_fill(0, 2, false);
  policy->on_hit(0, 0);
  EXPECT_EQ(policy->victim(0), 1);
}

TEST(Replacement, FactoryRejectsBadGeometry) {
  EXPECT_THROW(make_replacement(ReplacementKind::kLru, 0, 4),
               std::invalid_argument);
  EXPECT_THROW(make_replacement(ReplacementKind::kLru, 4, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace planaria::cache
