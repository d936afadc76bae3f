// Snapshot subsystem tests (DESIGN.md §11).
//
// Three layers of guarantees:
//   * Codec: Writer/Reader round-trip every primitive (doubles as IEEE-754
//     bit patterns), emit exactly the bytewise little-endian layout (fresh
//     or recycled buffer), decode at any alignment, and the Reader rejects
//     malformed input — truncation,
//     out-of-range bools, tag desync, trailing bytes — by throwing
//     SnapshotError, never by reading out of bounds (run under ASan via the
//     sanitize job).
//   * Components: every Snapshottable satisfies the byte-stability property
//     serialize -> deserialize -> serialize == identical bytes, exercised on
//     warmed-up state (a mid-run simulator covers the SLP/TLP tables, the
//     coordinators, every baseline prefetcher, the cache + replacement
//     policies, the DRAM channel, the fault injectors and the MSHR map).
//     Fuzz-truncated payload prefixes must all be rejected cleanly.
//   * Format stability: a golden snapshot committed at tests/data/golden.snap
//     must keep decoding. If this test fails after a serialization change,
//     bump snapshot::kFormatVersion and regenerate the golden with
//     PLANARIA_WRITE_GOLDEN=1 (see SnapshotGolden below).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/replacement.hpp"
#include "cache/system_cache.hpp"
#include "check/contract.hpp"
#include "common/rng.hpp"
#include "common/set_table.hpp"
#include "common/table.hpp"
#include "core/coordinators.hpp"
#include "core/planaria.hpp"
#include "core/slp.hpp"
#include "core/tlp.hpp"
#include "dram/channel.hpp"
#include "fault/fault.hpp"
#include "prefetch/bop.hpp"
#include "prefetch/prefetcher.hpp"
#include "prefetch/simple.hpp"
#include "prefetch/sms.hpp"
#include "prefetch/spp.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"

namespace planaria {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Codec primitives
// ---------------------------------------------------------------------------

TEST(SnapshotCodec, PrimitivesRoundTrip) {
  snapshot::Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.b(true);
  w.b(false);
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  w.str("planaria");
  w.str("");
  w.tag(snapshot::tag4("TEST"));

  snapshot::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not value, survives
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_EQ(r.str(), "planaria");
  EXPECT_EQ(r.str(), "");
  r.expect_tag(snapshot::tag4("TEST"));
  EXPECT_TRUE(r.at_end());
  r.require_end();
}

/// Byte-at-a-time CRC32 (reflected IEEE polynomial), computed bit by bit:
/// the reference the table-driven snapshot::crc32 must reproduce exactly.
std::uint32_t crc32_bytewise(const std::uint8_t* p, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(SnapshotCodec, Crc32MatchesBytewiseReference) {
  const char check[] = "123456789";
  EXPECT_EQ(snapshot::crc32(check, 9), 0xCBF43926u);  // the standard check value
  Rng rng(0xC0C0);
  std::vector<std::uint8_t> buf(4096 + 16);
  for (auto& byte : buf) byte = static_cast<std::uint8_t>(rng.next());
  for (std::size_t len = 0; len <= 4096; ++len) {
    // Every start offset mod 8 is covered, so the 8-byte main loop meets
    // every misalignment and every tail length.
    const std::size_t offset = (len * 5 + rng.next_below(8)) % 16;
    const std::uint8_t* p = buf.data() + offset;
    ASSERT_EQ(snapshot::crc32(p, len), crc32_bytewise(p, len))
        << "len " << len << " offset " << offset;
  }
}

TEST(SnapshotCodec, ReaderRejectsMalformedInput) {
  {
    snapshot::Reader r(nullptr, 0);
    EXPECT_THROW(r.u8(), snapshot::SnapshotError);
  }
  {
    const std::uint8_t short_u64[] = {1, 2, 3};
    snapshot::Reader r(short_u64, sizeof short_u64);
    EXPECT_THROW(r.u64(), snapshot::SnapshotError);
  }
  {
    const std::uint8_t bad_bool[] = {2};
    snapshot::Reader r(bad_bool, sizeof bad_bool);
    EXPECT_THROW(r.b(), snapshot::SnapshotError);
  }
  {
    // String whose declared length exceeds the remaining bytes.
    snapshot::Writer w;
    w.u32(1000);
    w.u8('x');
    snapshot::Reader r(w.buffer());
    EXPECT_THROW(r.str(), snapshot::SnapshotError);
  }
  {
    snapshot::Writer w;
    w.tag(snapshot::tag4("AAAA"));
    snapshot::Reader r(w.buffer());
    EXPECT_THROW(r.expect_tag(snapshot::tag4("BBBB")),
                 snapshot::SnapshotError);
  }
  {
    snapshot::Writer w;
    w.u8(1);
    w.u8(2);
    snapshot::Reader r(w.buffer());
    r.u8();
    EXPECT_THROW(r.require_end(), snapshot::SnapshotError);  // trailing byte
  }
}

/// Bytewise little-endian reference encoding of the low `n` bytes of `v`:
/// the layout every fixed-width Writer method must emit, whatever the host
/// byte order or the append strategy.
void append_le(std::vector<std::uint8_t>& out, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

TEST(SnapshotCodec, FixedWidthEncodingMatchesBytewiseReference) {
  const std::uint64_t edges[] = {
      0,
      ~0ull,                    // all ones
      1ull << 63,               // sign bit (and -0.0 as a double)
      0x7FF8'0000'DEAD'BEEFull, // quiet NaN with a payload
      0xFFF0'0000'0000'0001ull, // negative signalling-NaN pattern
      0x0123'4567'89AB'CDEFull,
      0x8000'0001'8001'8081ull, // sign bit of every narrower width
  };
  for (const std::uint64_t v : edges) {
    snapshot::Writer w;
    w.u16(static_cast<std::uint16_t>(v));
    w.u32(static_cast<std::uint32_t>(v));
    w.u64(v);
    w.i64(static_cast<std::int64_t>(v));
    w.f64(std::bit_cast<double>(v));
    std::vector<std::uint8_t> want;
    append_le(want, v, 2);
    append_le(want, v, 4);
    append_le(want, v, 8);
    append_le(want, v, 8);
    append_le(want, v, 8);
    EXPECT_EQ(w.buffer(), want) << std::hex << v;

    snapshot::Reader r(w.buffer());
    EXPECT_EQ(r.u16(), static_cast<std::uint16_t>(v));
    EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(v));
    EXPECT_EQ(r.u64(), v);
    EXPECT_EQ(r.i64(), static_cast<std::int64_t>(v));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), v) << std::hex << v;
    r.require_end();
  }
}

TEST(SnapshotCodec, TakeMovesTheBytesOutAndEmptiesTheWriter) {
  snapshot::Writer w;
  w.u64(0x0123456789ABCDEFull);
  w.str("planaria");
  const std::vector<std::uint8_t> expected = w.buffer();
  const std::vector<std::uint8_t> taken = std::move(w).take();
  EXPECT_EQ(taken, expected);
  EXPECT_TRUE(w.buffer().empty());  // NOLINT(bugprone-use-after-move)
  w.u8(7);  // still a usable writer
  EXPECT_EQ(w.buffer(), std::vector<std::uint8_t>{7});
}

TEST(SnapshotCodec, RecycledBufferWriterMatchesFreshWriter) {
  const auto encode = [](snapshot::Writer& w) {
    const std::size_t section = w.begin_section(snapshot::tag4("RCYC"));
    for (std::uint64_t i = 0; i < 300; ++i) {
      w.u8(static_cast<std::uint8_t>(i));
      w.u16(static_cast<std::uint16_t>(i * 257));
      w.u32(static_cast<std::uint32_t>(i * 0x01010101u));
      w.u64(i * 0x9E3779B97F4A7C15ull);
      w.f64(static_cast<double>(i) / 7.0);
      w.b(i % 3 == 0);
    }
    w.str("tail");
    w.end_section(section);
  };
  snapshot::Writer fresh;
  encode(fresh);

  // A buffer holding a longer, different payload: recycling must discard
  // its bytes but keep its storage, so the re-encode allocates nothing.
  std::vector<std::uint8_t> stale(3 * fresh.buffer().size(), 0xEE);
  const std::uint8_t* storage = stale.data();
  snapshot::Writer recycled(std::move(stale));
  EXPECT_TRUE(recycled.buffer().empty());
  encode(recycled);
  EXPECT_EQ(recycled.buffer(), fresh.buffer());
  EXPECT_EQ(recycled.buffer().data(), storage);

  // And again, through take(): the second generation matches too.
  snapshot::Writer again(std::move(recycled).take());
  encode(again);
  EXPECT_EQ(again.buffer(), fresh.buffer());
  EXPECT_EQ(again.buffer().data(), storage);
}

TEST(SnapshotCodec, ReaderDecodesUnalignedAndRejectsTruncation) {
  snapshot::Writer values;
  values.u64(0x0123456789ABCDEFull);
  values.u32(0xDEADBEEFu);
  values.u16(0xBEEF);
  values.i64(-2);
  values.f64(-1.5);
  const std::vector<std::uint8_t>& bytes = values.buffer();
  // The payload lands at every offset mod 8 of an 8-aligned arena, so each
  // multi-byte load meets every misalignment.
  std::vector<std::uint64_t> arena(bytes.size() / 8 + 3);
  auto* base = reinterpret_cast<std::uint8_t*>(arena.data());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::memcpy(base + offset, bytes.data(), bytes.size());
    snapshot::Reader r(base + offset, bytes.size());
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull) << offset;
    EXPECT_EQ(r.u32(), 0xDEADBEEFu) << offset;
    EXPECT_EQ(r.u16(), 0xBEEF) << offset;
    EXPECT_EQ(r.i64(), -2) << offset;
    EXPECT_EQ(r.f64(), -1.5) << offset;
    r.require_end();

    // Every proper prefix of each width throws and consumes nothing.
    for (const int width : {2, 4, 8}) {
      for (int keep = 0; keep < width; ++keep) {
        snapshot::Reader t(base + offset, static_cast<std::size_t>(keep));
        if (width == 2) {
          EXPECT_THROW(t.u16(), snapshot::SnapshotError);
        } else if (width == 4) {
          EXPECT_THROW(t.u32(), snapshot::SnapshotError);
        } else {
          EXPECT_THROW(t.u64(), snapshot::SnapshotError);
        }
        EXPECT_EQ(t.position(), 0u) << width << " " << keep;
      }
    }
  }
}

// Length-framed sections (serve's server envelope uses these to skip or
// validate per-session payloads without decoding them).

TEST(SnapshotCodec, SectionsRoundTripSkipAndNest) {
  snapshot::Writer w;
  const std::size_t outer = w.begin_section(snapshot::tag4("OUTR"));
  w.u64(7);
  const std::size_t inner = w.begin_section(snapshot::tag4("INNR"));
  w.str("nested");
  w.end_section(inner);
  w.u32(0xC0FFEE);
  w.end_section(outer);
  w.u8(0x42);  // data after the section must still line up

  // Full decode: lengths are exact.
  {
    snapshot::Reader r(w.buffer());
    const std::uint64_t outer_len = r.enter_section(snapshot::tag4("OUTR"));
    const std::size_t outer_start = r.position();
    EXPECT_EQ(r.u64(), 7u);
    const std::uint64_t inner_len = r.enter_section(snapshot::tag4("INNR"));
    const std::size_t inner_start = r.position();
    EXPECT_EQ(r.str(), "nested");
    EXPECT_EQ(r.position() - inner_start, inner_len);
    EXPECT_EQ(r.u32(), 0xC0FFEEu);
    EXPECT_EQ(r.position() - outer_start, outer_len);
    EXPECT_EQ(r.u8(), 0x42);
    r.require_end();
  }
  // Skip decode: a reader that does not understand OUTR can hop over it.
  {
    snapshot::Reader r(w.buffer());
    r.skip(r.enter_section(snapshot::tag4("OUTR")));
    EXPECT_EQ(r.u8(), 0x42);
    r.require_end();
  }
}

TEST(SnapshotCodec, SectionsRejectLiesAboutLength) {
  snapshot::Writer w;
  const std::size_t token = w.begin_section(snapshot::tag4("SECT"));
  w.u64(123);
  w.end_section(token);

  // Declared length larger than the remaining buffer: rejected at entry.
  {
    auto bytes = w.buffer();
    bytes[4] = 0xFF;  // low byte of the u64 length, little-endian
    snapshot::Reader r(bytes.data(), bytes.size());
    EXPECT_THROW(r.enter_section(snapshot::tag4("SECT")),
                 snapshot::SnapshotError);
  }
  // skip() past the end of the buffer throws instead of overrunning.
  {
    snapshot::Reader r(w.buffer());
    r.expect_tag(snapshot::tag4("SECT"));
    const std::uint64_t len = r.u64();
    EXPECT_THROW(r.skip(len + 1), snapshot::SnapshotError);
  }
  // Wrong tag at a section boundary desyncs loudly.
  {
    snapshot::Reader r(w.buffer());
    EXPECT_THROW(r.enter_section(snapshot::tag4("OTHR")),
                 snapshot::SnapshotError);
  }
}

// ---------------------------------------------------------------------------
// File envelope
// ---------------------------------------------------------------------------

class SnapshotFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "planaria-test-snapshot";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST_F(SnapshotFileTest, EnvelopeRoundTripsAndIsAtomic) {
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 1000; ++i) {
    payload.push_back(static_cast<std::uint8_t>(i * 7));
  }
  snapshot::write_file(path("a.snap"), payload);
  EXPECT_EQ(snapshot::read_file(path("a.snap")), payload);
  // No temp file left behind.
  EXPECT_FALSE(fs::exists(path("a.snap") + ".tmp"));
  // Overwrite with different content: the reader must see the new bytes.
  std::vector<std::uint8_t> payload2 = {9, 9, 9};
  snapshot::write_file(path("a.snap"), payload2);
  EXPECT_EQ(snapshot::read_file(path("a.snap")), payload2);
}

TEST_F(SnapshotFileTest, RejectsMissingTruncatedAndCorruptFiles) {
  EXPECT_THROW(snapshot::read_file(path("nonexistent.snap")),
               snapshot::SnapshotError);

  std::vector<std::uint8_t> payload(256, 0x5A);
  snapshot::write_file(path("b.snap"), payload);

  // Truncation at several depths: inside the header, and inside the payload.
  for (const std::uintmax_t keep : {0u, 7u, 12u, 23u, 24u, 100u}) {
    fs::copy_file(path("b.snap"), path("trunc.snap"),
                  fs::copy_options::overwrite_existing);
    fs::resize_file(path("trunc.snap"), keep);
    EXPECT_THROW(snapshot::read_file(path("trunc.snap")),
                 snapshot::SnapshotError)
        << "accepted a file truncated to " << keep << " bytes";
  }

  // One flipped payload byte: the CRC must catch it.
  {
    std::fstream f(path("b.snap"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24 + 17);
    f.put(static_cast<char>(0x5A ^ 0x01));
  }
  EXPECT_THROW(snapshot::read_file(path("b.snap")), snapshot::SnapshotError);

  // Bad magic and wrong version are both rejected before any payload read.
  snapshot::write_file(path("c.snap"), payload);
  {
    std::fstream f(path("c.snap"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.put('X');
  }
  EXPECT_THROW(snapshot::read_file(path("c.snap")), snapshot::SnapshotError);
  snapshot::write_file(path("d.snap"), payload);
  {
    std::fstream f(path("d.snap"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.put(static_cast<char>(snapshot::kFormatVersion + 1));
  }
  EXPECT_THROW(snapshot::read_file(path("d.snap")), snapshot::SnapshotError);
}

// ---------------------------------------------------------------------------
// Component round-trip property: serialize -> deserialize -> serialize is
// byte-identical, on warmed (mid-run) state.
// ---------------------------------------------------------------------------

std::vector<trace::TraceRecord> test_trace(std::uint64_t records) {
  return trace::generate_app_trace(trace::paper_apps().front(), records);
}

/// Simulator with real mid-run state: tables populated, requests in flight,
/// DRAM queues non-empty (no finish(), so nothing has been drained).
std::unique_ptr<sim::Simulator> warmed(sim::PrefetcherKind kind,
                                       const trace::TraceBatch& t,
                                       std::size_t feed,
                                       const sim::SimConfig& config = {}) {
  auto s = std::make_unique<sim::Simulator>(
      config, sim::make_prefetcher_factory(kind),
      sim::prefetcher_kind_name(kind));
  s->run_sharded(t, 0, feed);
  return s;
}

TEST(SnapshotRoundTrip, EveryPrefetcherKindIsByteStable) {
  const trace::TraceBatch t(test_trace(12000));
  for (sim::PrefetcherKind kind : sim::all_prefetcher_kinds()) {
    SCOPED_TRACE(sim::prefetcher_kind_name(kind));
    const auto original = warmed(kind, t, 9000);
    snapshot::Writer first;
    original->save_state(first);

    auto restored = warmed(kind, t, 0);
    snapshot::Reader r(first.buffer());
    restored->load_state(r);
    r.require_end();

    snapshot::Writer second;
    restored->save_state(second);
    EXPECT_EQ(first.buffer(), second.buffer());
  }
}

TEST(SnapshotRoundTrip, ArmedFaultInjectorsAreByteStable) {
  fault::FaultPlan plan;
  plan.seed = 77;
  for (int c = 0; c < fault::kFaultClassCount; ++c) {
    plan.rate[c] = 0.02;
  }
  sim::SimConfig config;
  config.fault = plan;
  const trace::TraceBatch t(test_trace(8000));

  check::RecoveryScope scope;  // trace corruption fires the time contract
  const auto original = warmed(sim::PrefetcherKind::kPlanaria, t, 6000, config);
  snapshot::Writer first;
  original->save_state(first);

  auto restored = warmed(sim::PrefetcherKind::kPlanaria, t, 0, config);
  snapshot::Reader r(first.buffer());
  restored->load_state(r);
  r.require_end();

  snapshot::Writer second;
  restored->save_state(second);
  EXPECT_EQ(first.buffer(), second.buffer());
}

TEST(SnapshotRoundTrip, EveryReplacementPolicyIsByteStable) {
  for (const cache::ReplacementKind kind :
       {cache::ReplacementKind::kLru, cache::ReplacementKind::kRandom,
        cache::ReplacementKind::kSrrip, cache::ReplacementKind::kDrrip}) {
    SCOPED_TRACE(static_cast<int>(kind));
    cache::CacheConfig config;
    config.size_bytes = 1 << 16;  // small slice so evictions actually happen
    config.replacement = kind;

    cache::SystemCache original(config);
    Rng rng(123);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t block = rng.next_below(4096);
      original.access(block, rng.chance(0.3) ? AccessType::kWrite
                                             : AccessType::kRead);
      if (rng.chance(0.7)) {
        original.fill(block, rng.chance(0.5)
                                 ? cache::FillSource::kPrefetchSlp
                                 : cache::FillSource::kDemand);
      }
    }
    snapshot::Writer first;
    original.save_state(first);

    cache::SystemCache restored(config);
    snapshot::Reader r(first.buffer());
    restored.load_state(r);
    r.require_end();

    snapshot::Writer second;
    restored.save_state(second);
    EXPECT_EQ(first.buffer(), second.buffer());
  }
}

// LruPolicy is the one policy class visible in the header (the cache calls
// it through a concrete pointer on the hot path), so it gets a standalone
// round-trip in addition to the through-the-cache sweep above.
TEST(SnapshotRoundTrip, LruPolicyIsByteStableStandalone) {
  cache::LruPolicy original(64, 16);
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    const auto set = static_cast<std::uint32_t>(rng.next_below(64));
    const int way = static_cast<int>(rng.next_below(16));
    if (rng.chance(0.5)) {
      original.on_hit(set, way);
    } else {
      original.on_fill(set, way, rng.chance(0.3));
    }
  }
  snapshot::Writer first;
  original.save_state(first);

  cache::LruPolicy restored(64, 16);
  snapshot::Reader r(first.buffer());
  restored.load_state(r);
  r.require_end();
  // Victim choice is the policy's entire observable behaviour; the restored
  // instance must agree with the original on every set.
  for (std::uint32_t set = 0; set < 64; ++set) {
    EXPECT_EQ(original.victim(set), restored.victim(set));
  }

  snapshot::Writer second;
  restored.save_state(second);
  EXPECT_EQ(first.buffer(), second.buffer());
}

TEST(SnapshotRoundTrip, FaultInjectorResumesItsStreamsExactly) {
  const auto plan = fault::FaultPlan::single(fault::FaultClass::kPrefetchDrop,
                                            0.5, 99);
  fault::FaultInjector a(plan, 3);
  for (int i = 0; i < 1000; ++i) {
    if (a.roll(fault::FaultClass::kPrefetchDrop)) {
      a.record(fault::FaultClass::kPrefetchDrop);
    }
  }
  snapshot::Writer w;
  a.save_state(w);

  fault::FaultInjector b(plan, 3);
  snapshot::Reader r(w.buffer());
  b.load_state(r);
  r.require_end();
  EXPECT_EQ(b.injected(fault::FaultClass::kPrefetchDrop),
            a.injected(fault::FaultClass::kPrefetchDrop));
  // Both streams must continue in lockstep after the restore.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.roll(fault::FaultClass::kPrefetchDrop),
              b.roll(fault::FaultClass::kPrefetchDrop));
  }
}

TEST(SnapshotRoundTrip, SimResultSurvivesVerbatim) {
  sim::SimResult a;
  a.prefetcher = "planaria";
  a.demand_reads = 123456;
  a.amat_cycles = 87.125609134847502;
  a.ipc = 1.9999999999999998;  // adjacent representable doubles must survive
  a.data_bus_utilization = 0.3333333333333333;
  a.fault_injected_total = 42;
  a.fault_dram_stalls = 17;

  snapshot::Writer w;
  a.save_state(w);
  sim::SimResult b;
  snapshot::Reader r(w.buffer());
  b.load_state(r);
  r.require_end();
  EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------------
// Fuzzed damage: every truncated prefix of a full simulator payload must be
// rejected with SnapshotError — never a crash, hang, or silent acceptance.
// ---------------------------------------------------------------------------

TEST(SnapshotFuzz, TruncatedPayloadsAreRejectedCleanly) {
  const trace::TraceBatch t(test_trace(6000));
  const auto original = warmed(sim::PrefetcherKind::kPlanaria, t, 5000);
  snapshot::Writer w;
  original->save_state(w);
  const auto& full = w.buffer();
  ASSERT_GT(full.size(), 200u);

  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < 64 && n < full.size(); ++n) cuts.push_back(n);
  for (std::size_t n = 64; n < full.size(); n += 997) cuts.push_back(n);
  cuts.push_back(full.size() - 1);

  for (const std::size_t cut : cuts) {
    auto fresh = warmed(sim::PrefetcherKind::kPlanaria, t, 0);
    snapshot::Reader r(full.data(), cut);
    EXPECT_THROW(
        {
          fresh->load_state(r);
          r.require_end();  // a prefix that "loads" must still fail framing
        },
        snapshot::SnapshotError)
        << "accepted a payload truncated to " << cut << " of " << full.size()
        << " bytes";
  }
}

TEST(SnapshotFuzz, WrongKindPayloadIsRejected) {
  const trace::TraceBatch t(test_trace(4000));
  const auto bop = warmed(sim::PrefetcherKind::kBop, t, 3000);
  snapshot::Writer w;
  bop->save_state(w);
  auto spp = warmed(sim::PrefetcherKind::kSpp, t, 0);
  snapshot::Reader r(w.buffer());
  EXPECT_THROW(spp->load_state(r), snapshot::SnapshotError);
}

// ---------------------------------------------------------------------------
// Keys a set scan cannot find: the SC tag column and the SLP/SMS tables look
// a key up only within the set it maps to, so a restore must reject a valid
// slot whose key maps to another set, and a key already valid in its set.
// Each case patches one key of a real mid-run simulator snapshot.
// ---------------------------------------------------------------------------

std::uint64_t read_le64(const std::vector<std::uint8_t>& buf, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | buf.at(at + i);
  return v;
}

void write_le64(std::vector<std::uint8_t>& buf, std::size_t at,
                std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Offset just past the first `tag` in `buf`.
std::size_t after_tag(const std::vector<std::uint8_t>& buf,
                      std::uint32_t tag) {
  snapshot::Writer needle;
  needle.tag(tag);
  const auto it = std::search(buf.begin(), buf.end(), needle.buffer().begin(),
                              needle.buffer().end());
  EXPECT_NE(it, buf.end());
  return static_cast<std::size_t>(it - buf.begin()) + 4;
}

/// One valid-slot record of a table section: where its key sits in the
/// buffer, its slot index and its key.
struct SlotRecord {
  std::size_t key_at = 0;
  std::uint64_t slot = 0;
  std::uint64_t key = 0;
};

/// Records of the first section tagged `tag` whose body opens with
/// `header_bytes` of fixed fields, then a u64 record count, then records of
/// (u64 slot, u64 key, `tail_bytes` more).
std::vector<SlotRecord> slot_records(const std::vector<std::uint8_t>& buf,
                                     std::uint32_t tag,
                                     std::size_t header_bytes,
                                     std::size_t tail_bytes) {
  std::size_t at = after_tag(buf, tag) + header_bytes;
  const std::uint64_t count = read_le64(buf, at);
  at += 8;
  std::vector<SlotRecord> out;
  for (std::uint64_t n = 0; n < count; ++n) {
    out.push_back({at + 8, read_le64(buf, at), read_le64(buf, at + 8)});
    at += 16 + tail_bytes;
  }
  return out;
}

/// Index of the first record whose successor shares its set.
std::optional<std::size_t> first_same_set_pair(
    const std::vector<SlotRecord>& recs, std::uint64_t ways) {
  for (std::size_t k = 0; k + 1 < recs.size(); ++k) {
    if (recs[k].slot / ways == recs[k + 1].slot / ways) return k;
  }
  return std::nullopt;
}

void expect_restore_rejects(
    const std::vector<std::uint8_t>& bytes, const trace::TraceBatch& t,
    const std::string& reason,
    sim::PrefetcherKind kind = sim::PrefetcherKind::kPlanaria) {
  auto fresh = warmed(kind, t, 0);
  snapshot::Reader r(bytes);
  try {
    fresh->load_state(r);
    ADD_FAILURE() << "restore accepted a patched key; expected: " << reason;
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

/// Snapshot after 5000 of `t`'s records; checks it loads unpatched.
std::vector<std::uint8_t> real_snapshot(
    const trace::TraceBatch& t,
    sim::PrefetcherKind kind = sim::PrefetcherKind::kPlanaria) {
  const auto original = warmed(kind, t, 5000);
  snapshot::Writer w;
  original->save_state(w);
  auto fresh = warmed(kind, t, 0);
  snapshot::Reader r(w.buffer());
  fresh->load_state(r);
  r.require_end();
  return w.buffer();
}

TEST(SnapshotRestore, CacheRejectsLinesASetScanCannotFind) {
  const trace::TraceBatch t(test_trace(6000));
  const std::vector<std::uint8_t> real = real_snapshot(t);
  // SC lines (CSH0): u64 count, then (slot, block, dirty, prefetched,
  // source). A block's set is its low bits.
  const std::uint64_t sc_ways =
      static_cast<std::uint64_t>(cache::CacheConfig{}.ways);
  const auto lines = slot_records(real, snapshot::tag4("CSH0"), 0, 3);
  ASSERT_FALSE(lines.empty());
  {
    auto bytes = real;
    write_le64(bytes, lines[0].key_at, lines[0].key ^ 1);
    expect_restore_rejects(bytes, t, "cache line block stored outside its set");
  }
  const auto line_pair = first_same_set_pair(lines, sc_ways);
  ASSERT_TRUE(line_pair.has_value());
  {
    auto bytes = real;
    write_le64(bytes, lines[*line_pair + 1].key_at, lines[*line_pair].key);
    expect_restore_rejects(bytes, t,
                           "cache line block duplicated within its set");
  }
}

TEST(SnapshotRestore, SetTableRejectsKeysASetScanCannotFind) {
  const trace::TraceBatch t(test_trace(6000));
  const std::vector<std::uint8_t> real = real_snapshot(t);
  // SLP filter table (first table after SLP0): u64 tick, u64 count, then
  // (slot, key, last_use, 3 offset bytes + u32 count).
  const std::uint64_t ft_ways =
      static_cast<std::uint64_t>(core::SlpConfig{}.ft_ways);
  const auto ft = slot_records(real, snapshot::tag4("SLP0"), 8, 8 + 7);
  const auto other_set =
      std::find_if(ft.begin(), ft.end(), [&](const SlotRecord& rec) {
        return rec.slot / ft_ways != ft.front().slot / ft_ways;
      });
  ASSERT_NE(other_set, ft.end());
  {
    auto bytes = real;
    write_le64(bytes, ft.front().key_at, other_set->key);
    expect_restore_rejects(bytes, t, "set table key stored outside its set");
  }
  const auto ft_pair = first_same_set_pair(ft, ft_ways);
  ASSERT_TRUE(ft_pair.has_value());
  {
    auto bytes = real;
    write_le64(bytes, ft[*ft_pair + 1].key_at, ft[*ft_pair].key);
    expect_restore_rejects(bytes, t, "set table key duplicated within its set");
  }
}

// ---------------------------------------------------------------------------
// Keys a hash shadow cannot hold: LruTable (SPP's signature table) and TLP's
// Recent Page Table index their valid entries by key, one slot per key, and
// the SC pollution set is a membership set. A restore must reject a key
// valid in two slots (its twin would be unreachable) and pollution members
// that are not the strictly ascending list the writer emits.
// ---------------------------------------------------------------------------

TEST(SnapshotRestore, LruTableRejectsAKeyRepeatedAcrossSlots) {
  const trace::TraceBatch t(test_trace(6000));
  const auto kind = sim::PrefetcherKind::kSpp;
  const std::vector<std::uint8_t> real = real_snapshot(t, kind);
  // SPP signature table (first table after SPP0): u64 tick, u64 count, then
  // (slot, key, last_use, u16 signature, i64 last offset).
  const auto st = slot_records(real, snapshot::tag4("SPP0"), 8, 8 + 2 + 8);
  ASSERT_GE(st.size(), 2u);
  auto bytes = real;
  write_le64(bytes, st[1].key_at, st[0].key);
  expect_restore_rejects(bytes, t, "lru table key repeated across slots", kind);
}

TEST(SnapshotRestore, TlpRejectsAPageValidInTwoSlots) {
  const trace::TraceBatch t(test_trace(6000));
  const std::vector<std::uint8_t> real = real_snapshot(t);
  // TLP0: u64 slot count, then per slot a valid byte and, when valid,
  // (u64 page, u16 bitmap, u64 last_use, ceil(slots/8) Ref-row bytes).
  std::size_t at = after_tag(real, snapshot::tag4("TLP0"));
  const std::uint64_t slots = read_le64(real, at);
  at += 8;
  const std::size_t row_bytes = static_cast<std::size_t>((slots + 7) / 8);
  std::vector<std::size_t> page_at;
  for (std::uint64_t i = 0; i < slots; ++i) {
    const bool valid = real.at(at) != 0;
    at += 1;
    if (!valid) continue;
    page_at.push_back(at);
    at += 8 + 2 + 8 + row_bytes;
  }
  ASSERT_GE(page_at.size(), 2u);
  auto bytes = real;
  write_le64(bytes, page_at[1], read_le64(real, page_at[0]));
  expect_restore_rejects(bytes, t, "RPT page valid in two slots");
}

TEST(SnapshotRestore, CacheRejectsPollutionMembersOutOfOrder) {
  // 64 KB slices fill within the run, so prefetch fills evict demand lines
  // and the pollution set has members to patch.
  sim::SimConfig config;
  config.cache.size_bytes = 1 << 16;
  const trace::TraceBatch t(test_trace(6000));
  const auto kind = sim::PrefetcherKind::kPlanaria;
  snapshot::Writer w;
  warmed(kind, t, 5000, config)->save_state(w);
  const std::vector<std::uint8_t>& real = w.buffer();
  const auto restore = [&](const std::vector<std::uint8_t>& bytes) {
    auto fresh = warmed(kind, t, 0, config);
    snapshot::Reader r(bytes);
    fresh->load_state(r);
    r.require_end();
  };
  ASSERT_NO_THROW(restore(real));
  // CSH0: u64 valid-line count and 19-byte line records, the LRU policy
  // (RLRU, u64 tick, one u64 stamp per line), 14 u64 counters, the
  // pollution FIFO (u64 size, entries, u64 head), then the membership set
  // (u64 size, members ascending).
  const std::uint64_t lines =
      config.cache.sets() * static_cast<std::uint64_t>(config.cache.ways);
  std::size_t at = after_tag(real, snapshot::tag4("CSH0"));
  at += 8 + 19 * static_cast<std::size_t>(read_le64(real, at));
  ASSERT_EQ(read_le64(real, at) & 0xFFFFFFFFu, snapshot::tag4("RLRU"));
  at += 4 + 8 + 8 * static_cast<std::size_t>(lines) + 14 * 8;
  at += 8 + 8 * static_cast<std::size_t>(read_le64(real, at)) + 8;
  const std::uint64_t members = read_le64(real, at);
  at += 8;
  ASSERT_GE(members, 2u);
  const std::uint64_t first = read_le64(real, at);
  const std::uint64_t second = read_le64(real, at + 8);
  ASSERT_LT(first, second);
  for (const auto& [a, b] :
       {std::pair{first, first}, std::pair{second, first}}) {
    auto bytes = real;
    write_le64(bytes, at, a);
    write_le64(bytes, at + 8, b);
    try {
      restore(bytes);
      ADD_FAILURE() << "restore accepted pollution members " << a << ", " << b;
    } catch (const snapshot::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "pollution set members not strictly ascending"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint/resume at the API level (the audit's crash stage covers the
// full kill matrix; this is the fast in-tree slice of it).
// ---------------------------------------------------------------------------

TEST_F(SnapshotFileTest, ResumeMatchesUninterruptedRunBitForBit) {
  const auto t = test_trace(10000);
  const trace::TraceBatch b(t);
  const auto base = sim::Simulator::run(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t);

  // Run 6000 records, checkpoint, abandon; resume must complete identically.
  const auto part = warmed(sim::PrefetcherKind::kPlanaria, b, 6000);
  sim::CheckpointConfig ckpt;
  ckpt.dir = dir_.string();
  ckpt.every = 6000;
  sim::write_checkpoint(*part, ckpt, 6000, sim::trace_fingerprint(b));

  const auto resumed = sim::resume(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      b, ckpt.current_path());
  EXPECT_TRUE(resumed == base);

  // resume() on a damaged snapshot throws instead of falling back.
  fs::resize_file(ckpt.current_path(), 30);
  EXPECT_THROW(sim::resume(sim::SimConfig{},
                           sim::make_prefetcher_factory(
                               sim::PrefetcherKind::kPlanaria),
                           "planaria", b, ckpt.current_path()),
               snapshot::SnapshotError);
}

TEST_F(SnapshotFileTest, EncodedPayloadIsWhatWriteCheckpointInstalls) {
  const auto t = test_trace(8000);
  const trace::TraceBatch b(t);
  const auto part = warmed(sim::PrefetcherKind::kPlanaria, b, 4000);
  const std::uint64_t fingerprint = sim::trace_fingerprint(b);
  sim::CheckpointConfig ckpt;
  ckpt.dir = dir_.string();
  ckpt.every = 4000;
  sim::write_checkpoint(*part, ckpt, 4000, fingerprint);
  const auto installed = snapshot::read_file(ckpt.current_path());

  // Encoding into a recycled buffer that holds stale, longer bytes yields
  // exactly the payload write_checkpoint installed.
  std::vector<std::uint8_t> payload(3 * installed.size(), 0xEE);
  sim::encode_checkpoint(*part, 4000, fingerprint, payload);
  EXPECT_EQ(payload, installed);

  // The split write step rotates exactly as write_checkpoint does.
  sim::write_checkpoint_payload(ckpt, payload);
  EXPECT_EQ(snapshot::read_file(ckpt.prev_path()), installed);
  EXPECT_EQ(snapshot::read_file(ckpt.current_path()), installed);
}

TEST_F(SnapshotFileTest, FingerprintMismatchForcesColdStart) {
  const auto t = test_trace(8000);
  const trace::TraceBatch b(t);
  const auto part = warmed(sim::PrefetcherKind::kPlanaria, b, 4000);
  sim::CheckpointConfig ckpt;
  ckpt.dir = dir_.string();
  ckpt.every = 4000;
  sim::write_checkpoint(*part, ckpt, 4000, sim::trace_fingerprint(b));

  // A different trace must not resume from this snapshot.
  const auto other = test_trace(8001);
  const trace::TraceBatch other_batch(other);
  sim::RecoveryReport rep;
  const auto result = sim::run_checkpointed(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      other_batch, ckpt, nullptr, &rep);
  EXPECT_EQ(rep.outcome, sim::RecoveryReport::Outcome::kColdStart);
  ASSERT_FALSE(rep.notes.empty());
  EXPECT_NE(rep.notes.front().find("different trace"), std::string::npos);
  const auto base = sim::Simulator::run(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      other);
  EXPECT_TRUE(result == base);
}

// Rotation boundary: write_checkpoint promotes current -> .prev *before*
// writing the new current, so a kill can land between those two steps. The
// recovery chain must then restore from .prev — one checkpoint older, but
// complete — and still finish bit-identical.

TEST_F(SnapshotFileTest, KillDuringRotationPromotionFallsBackToPrev) {
  const auto t = test_trace(10000);
  const trace::TraceBatch b(t);
  const auto base = sim::Simulator::run(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t);

  sim::CheckpointConfig ckpt;
  ckpt.dir = dir_.string();
  ckpt.every = 4000;
  const auto part = warmed(sim::PrefetcherKind::kPlanaria, b, 4000);
  sim::write_checkpoint(*part, ckpt, 4000, sim::trace_fingerprint(b));

  // Reproduce the exact mid-rotation state of the *next* checkpoint: the
  // rename has promoted current to .prev and the process died before the
  // fresh current landed. No current file exists at restart.
  fs::rename(ckpt.current_path(), ckpt.prev_path());
  ASSERT_FALSE(fs::exists(ckpt.current_path()));

  sim::RecoveryReport rep;
  const auto result = sim::run_checkpointed(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      b, ckpt, nullptr, &rep);
  EXPECT_EQ(rep.outcome, sim::RecoveryReport::Outcome::kFellBack);
  EXPECT_EQ(rep.resumed_cursor, 4000u);
  EXPECT_EQ(rep.snapshot_path, ckpt.prev_path());
  EXPECT_TRUE(result == base);
}

TEST_F(SnapshotFileTest, DoubleKillAcrossRotationsColdStartsCleanly) {
  const auto t = test_trace(10000);
  const trace::TraceBatch b(t);
  const auto base = sim::Simulator::run(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t);

  sim::CheckpointConfig ckpt;
  ckpt.dir = dir_.string();
  ckpt.every = 4000;
  const auto part = warmed(sim::PrefetcherKind::kPlanaria, b, 4000);
  sim::write_checkpoint(*part, ckpt, 4000, sim::trace_fingerprint(b));
  const auto later = warmed(sim::PrefetcherKind::kPlanaria, b, 8000);
  sim::write_checkpoint(*later, ckpt, 8000, sim::trace_fingerprint(b));

  // First kill: torn write of the current snapshot. Second kill: the retry
  // died mid-rotation too, tearing what .prev held. Both candidates are now
  // damaged — recovery must degrade to a cold start with one note per
  // rejected candidate, and the result must still match.
  fs::resize_file(ckpt.current_path(), fs::file_size(ckpt.current_path()) / 3);
  fs::resize_file(ckpt.prev_path(), 16);  // dies inside the file header

  sim::RecoveryReport rep;
  const auto result = sim::run_checkpointed(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      b, ckpt, nullptr, &rep);
  EXPECT_EQ(rep.outcome, sim::RecoveryReport::Outcome::kColdStart);
  EXPECT_EQ(rep.notes.size(), 2u);
  EXPECT_TRUE(result == base);

  // The recovered run re-checkpointed as it went; a third run resumes from
  // its freshly written current snapshot without drama.
  sim::RecoveryReport rep2;
  const auto again = sim::run_checkpointed(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      b, ckpt, nullptr, &rep2);
  EXPECT_EQ(rep2.outcome, sim::RecoveryReport::Outcome::kResumed);
  EXPECT_TRUE(again == base);
}

TEST_F(SnapshotFileTest, SweepCellsResumeFromPersistedResults) {
  sim::ExperimentRunner first(sim::SimConfig{}, 4000, 1);
  first.set_checkpoint_dir(dir_.string());
  const std::vector<sim::PrefetcherKind> kinds = {sim::PrefetcherKind::kNone,
                                                  sim::PrefetcherKind::kBop};
  const auto a = first.sweep(kinds);
  // Every completed cell left a validated result file behind.
  std::size_t cell_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    cell_files += entry.path().extension() == ".result" ? 1 : 0;
  }
  EXPECT_EQ(cell_files, trace::app_names().size() * kinds.size());

  // A second runner must reload them verbatim.
  sim::ExperimentRunner second(sim::SimConfig{}, 4000, 1);
  second.set_checkpoint_dir(dir_.string());
  const auto b = second.sweep(kinds);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [app, per_kind] : a) {
    for (const auto& [kind_name, result] : per_kind) {
      EXPECT_TRUE(result == b.at(app).at(kind_name)) << app << "/" << kind_name;
    }
  }

  // A corrupted cell file is silently re-run, not trusted.
  const auto victim = dir_ / ("cell_" + a.begin()->first + "_none.result");
  ASSERT_TRUE(fs::exists(victim));
  fs::resize_file(victim, 10);
  sim::ExperimentRunner third(sim::SimConfig{}, 4000, 1);
  third.set_checkpoint_dir(dir_.string());
  const auto c = third.sweep(kinds);
  EXPECT_TRUE(a.begin()->second.at("none") == c.at(a.begin()->first).at("none"));
}

class PoisonedSweepTest : public SnapshotFileTest,
                          public ::testing::WithParamInterface<std::size_t> {};

TEST_P(PoisonedSweepTest, ThrowsThenRerunRunsOnlyTheMissingCell) {
  // Poison the grid's last cell: a directory squatting on its store path's
  // .tmp name makes store_cell throw. Being last, it fails after the serial
  // loop has stored every other cell; the pool finishes them all anyway.
  const std::vector<sim::PrefetcherKind> kinds = {sim::PrefetcherKind::kNone,
                                                  sim::PrefetcherKind::kBop};
  const std::string poisoned = "cell_" + trace::app_names().back() + "_bop.result";
  const fs::path squatter = dir_ / (poisoned + ".tmp");
  fs::create_directories(squatter);

  sim::ExperimentRunner runner(sim::SimConfig{}, 4000, GetParam());
  runner.set_checkpoint_dir(dir_.string());
  try {
    runner.sweep(kinds);
    FAIL() << "a sweep with a poisoned cell must throw";
  } catch (const std::exception& e) {
    // The message names the failing VFS op.
    EXPECT_NE(std::string(e.what()).find("io: create"), std::string::npos)
        << e.what();
  }

  // Every other cell left its result behind.
  std::size_t cell_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    cell_files += entry.path().extension() == ".result" ? 1 : 0;
  }
  EXPECT_EQ(cell_files, trace::app_names().size() * kinds.size() - 1);
  EXPECT_FALSE(fs::exists(dir_ / poisoned));

  // Once the squatter is gone, a rerun reloads the stored cells and runs the
  // missing one: the grid equals a sweep that never checkpointed.
  fs::remove_all(squatter);
  sim::ExperimentRunner rerun(sim::SimConfig{}, 4000, GetParam());
  rerun.set_checkpoint_dir(dir_.string());
  const auto recovered = rerun.sweep(kinds);
  sim::ExperimentRunner clean_runner(sim::SimConfig{}, 4000, GetParam());
  clean_runner.set_checkpoint_dir("");
  const auto clean = clean_runner.sweep(kinds);
  ASSERT_EQ(recovered.size(), clean.size());
  for (const auto& [app, per_kind] : clean) {
    ASSERT_EQ(recovered.at(app).size(), per_kind.size()) << app;
    for (const auto& [kind_name, result] : per_kind) {
      EXPECT_TRUE(result == recovered.at(app).at(kind_name))
          << app << "/" << kind_name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PoisonedSweepTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2}));

// ---------------------------------------------------------------------------
// Golden snapshot: format stability across commits.
// ---------------------------------------------------------------------------

/// Hand-constructed deterministic trace (kept independent of the trace
/// generator so generator tuning can never invalidate the golden file).
/// Addresses walk all four channels; every 7th record is a write.
std::vector<trace::TraceRecord> golden_trace() {
  std::vector<trace::TraceRecord> out;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  Cycle t = 0;
  for (int i = 0; i < 512; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    trace::TraceRecord rec;
    rec.address = (state >> 16) & 0xFFFFFFC0ull;  // 64B-aligned, 32-bit range
    rec.arrival = t;
    t += (state >> 58) + 1;
    rec.type = i % 7 == 0 ? AccessType::kWrite : AccessType::kRead;
    rec.device = static_cast<DeviceId>(i % static_cast<int>(DeviceId::kCount));
    out.push_back(rec);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Type coverage: every snapshottable component, exercised by name
// ---------------------------------------------------------------------------
// The simulator round-trips above cover these classes as composed state, but
// composition can mask a component whose encode/decode quietly cancels out.
// This section holds each type directly: the interface hierarchy really is
// rooted at snapshot::Snapshottable, and warmed instances of each component
// satisfy serialize -> deserialize -> serialize == identical bytes on their
// own. planaria-lint's snapshot-roundtrip rule checks every snapshottable
// class is named here.

TEST(SnapshotTypeCoverage, HierarchyIsRootedAtSnapshottable) {
  static_assert(
      std::is_base_of_v<snapshot::Snapshottable, prefetch::Prefetcher>);
  static_assert(
      std::is_base_of_v<prefetch::Prefetcher, core::PlanariaPrefetcher>);
  static_assert(std::is_base_of_v<prefetch::Prefetcher, core::SerialComposite>);
  static_assert(
      std::is_base_of_v<prefetch::Prefetcher, core::ParallelComposite>);
  static_assert(
      std::is_base_of_v<prefetch::Prefetcher, prefetch::BestOffsetPrefetcher>);
  static_assert(
      std::is_base_of_v<prefetch::Prefetcher, prefetch::StridePrefetcher>);
  static_assert(
      std::is_base_of_v<prefetch::Prefetcher, prefetch::SmsPrefetcher>);
  static_assert(std::is_base_of_v<prefetch::Prefetcher,
                                  prefetch::SignaturePathPrefetcher>);
  static_assert(
      std::is_base_of_v<prefetch::Prefetcher, prefetch::NextLinePrefetcher>);
  // ReplacementPolicy predates the Snapshottable interface but exposes the
  // same save_state/load_state pair; the suite below holds it to the same
  // byte-stability property via make_replacement.
  static_assert(std::is_abstract_v<cache::ReplacementPolicy>);
  SUCCEED();
}

namespace {

/// Deterministic synthetic demand stream: a few pages touched with a stride
/// pattern plus revisits, enough to populate AT/PT/RPT state in every
/// pattern-based prefetcher.
prefetch::DemandEvent coverage_event(int i) {
  prefetch::DemandEvent e;
  e.page = static_cast<PageNumber>(100 + (i * 7) % 13);
  e.block_in_segment = (i * 3) % 16;
  e.local_block = static_cast<std::uint64_t>(e.page) * 16 +
                  static_cast<std::uint64_t>(e.block_in_segment);
  e.now = static_cast<Cycle>(10 * i);
  e.sc_hit = (i % 3) == 0;
  return e;
}

/// Warms a prefetcher on the synthetic stream, then checks the byte-stability
/// property against a freshly constructed instance.
template <typename MakePrefetcher>
void expect_prefetcher_byte_stable(MakePrefetcher make) {
  auto original = make();
  std::vector<prefetch::PrefetchRequest> out;
  for (int i = 0; i < 2000; ++i) {
    original->on_demand(coverage_event(i), out);
    if (i % 5 == 0) {
      original->on_fill(coverage_event(i).local_block, (i % 10) == 0,
                        static_cast<Cycle>(10 * i + 7));
    }
  }

  snapshot::Writer first;
  original->save_state(first);

  auto restored = make();
  snapshot::Reader r(first.buffer());
  restored->load_state(r);
  r.require_end();

  snapshot::Writer second;
  restored->save_state(second);
  EXPECT_EQ(first.buffer(), second.buffer());
}

}  // namespace

TEST(SnapshotTypeCoverage, EveryPrefetcherImplementorIsByteStableAlone) {
  {
    SCOPED_TRACE("PlanariaPrefetcher");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<core::PlanariaPrefetcher>(); });
  }
  {
    SCOPED_TRACE("SerialComposite");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<core::SerialComposite>(); });
  }
  {
    SCOPED_TRACE("ParallelComposite");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<core::ParallelComposite>(); });
  }
  {
    SCOPED_TRACE("BestOffsetPrefetcher");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<prefetch::BestOffsetPrefetcher>(); });
  }
  {
    SCOPED_TRACE("StridePrefetcher");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<prefetch::StridePrefetcher>(); });
  }
  {
    SCOPED_TRACE("SmsPrefetcher");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<prefetch::SmsPrefetcher>(); });
  }
  {
    SCOPED_TRACE("SignaturePathPrefetcher");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<prefetch::SignaturePathPrefetcher>(); });
  }
}

TEST(SnapshotTypeCoverage, SlpAndTlpRoundTripOutsideTheCoordinators) {
  core::Slp slp;
  core::Tlp tlp;
  std::vector<prefetch::PrefetchRequest> out;
  for (int i = 0; i < 3000; ++i) {
    const prefetch::DemandEvent e = coverage_event(i);
    slp.learn(e);
    tlp.learn(e);
    if (!e.sc_hit) {
      slp.issue(e, out);
      tlp.issue(e, out);
    }
  }

  snapshot::Writer slp_first;
  slp.save_state(slp_first);
  core::Slp slp_restored;
  snapshot::Reader slp_r(slp_first.buffer());
  slp_restored.load_state(slp_r);
  slp_r.require_end();
  snapshot::Writer slp_second;
  slp_restored.save_state(slp_second);
  EXPECT_EQ(slp_first.buffer(), slp_second.buffer());

  snapshot::Writer tlp_first;
  tlp.save_state(tlp_first);
  core::Tlp tlp_restored;
  snapshot::Reader tlp_r(tlp_first.buffer());
  tlp_restored.load_state(tlp_r);
  tlp_r.require_end();
  snapshot::Writer tlp_second;
  tlp_restored.save_state(tlp_second);
  EXPECT_EQ(tlp_first.buffer(), tlp_second.buffer());
}

TEST(SnapshotTypeCoverage, LruTableRoundTripsWithExactRecency) {
  LruTable<std::uint64_t, std::uint64_t> table(8);
  for (std::uint64_t k = 0; k < 13; ++k) table.insert(k * 3, k + 100);
  // Refresh a surviving entry (the first 5 inserts were evicted) so recency
  // differs from insertion order.
  table.find(18);
  const auto encode = [](snapshot::Writer& w, const std::uint64_t& p) {
    w.u64(p);
  };
  const auto decode = [](snapshot::Reader& r) { return r.u64(); };

  snapshot::Writer first;
  table.save_state(first, encode);

  LruTable<std::uint64_t, std::uint64_t> restored(8);
  snapshot::Reader r(first.buffer());
  restored.load_state(r, decode);
  r.require_end();
  EXPECT_EQ(restored.size(), table.size());
  ASSERT_NE(restored.peek(18), nullptr);
  EXPECT_EQ(*restored.peek(18), 106u);

  snapshot::Writer second;
  restored.save_state(second, encode);
  EXPECT_EQ(first.buffer(), second.buffer());
}

TEST(SnapshotTypeCoverage, SetAssocTableRoundTripsWithExactRecency) {
  SetAssocTable<std::uint64_t, std::uint64_t> table(4, 2);
  for (std::uint64_t k = 0; k < 17; ++k) table.insert(k * 5, k + 200);
  table.find(10);
  const auto encode = [](snapshot::Writer& w, const std::uint64_t& p) {
    w.u64(p);
  };
  const auto decode = [](snapshot::Reader& r) { return r.u64(); };

  snapshot::Writer first;
  table.save_state(first, encode);

  SetAssocTable<std::uint64_t, std::uint64_t> restored(4, 2);
  snapshot::Reader r(first.buffer());
  restored.load_state(r, decode);
  r.require_end();
  EXPECT_EQ(restored.size(), table.size());

  snapshot::Writer second;
  restored.save_state(second, encode);
  EXPECT_EQ(first.buffer(), second.buffer());
}

TEST(SnapshotTypeCoverage, DramChannelRoundTripsMidFlight) {
  dram::DramConfig config;
  dram::DramChannel channel(config);
  for (int i = 0; i < 200; ++i) {
    dram::DramRequest req;
    req.local_block = static_cast<std::uint64_t>((i * 37) % 4096);
    req.arrival = static_cast<Cycle>(i * 11);
    req.is_write = (i % 7) == 0;
    req.is_prefetch = (i % 5) == 0 && !req.is_write;
    req.tag = static_cast<std::uint64_t>(i);
    channel.submit(req);
  }
  channel.advance(1500);  // mid-flight: queues are non-empty, banks are busy
  std::vector<dram::DramCompletion> a, b;
  channel.take_completions(a);

  snapshot::Writer first;
  channel.save_state(first);

  dram::DramChannel restored(config);
  snapshot::Reader r(first.buffer());
  restored.load_state(r);
  r.require_end();

  snapshot::Writer second;
  restored.save_state(second);
  EXPECT_EQ(first.buffer(), second.buffer());

  // The restored channel must also *behave* identically, not just re-encode.
  channel.drain();
  restored.drain();
  channel.take_completions(a);
  restored.take_completions(b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tag, b[i].tag);
    EXPECT_EQ(a[i].finish, b[i].finish);
  }
}

TEST(SnapshotGolden, CommittedSnapshotStillDecodes) {
  const std::string golden = std::string(PLANARIA_TESTDATA_DIR) +
                             "/golden.snap";
  const auto t = golden_trace();
  const trace::TraceBatch b(t);
  constexpr std::uint64_t kGoldenCursor = 256;

  // lint: suppress(determinism) opt-in regeneration knob for the committed golden snapshot
  if (const char* write = std::getenv("PLANARIA_WRITE_GOLDEN");
      write != nullptr && *write != '\0') {
    const auto s = warmed(sim::PrefetcherKind::kPlanaria, b, kGoldenCursor);
    snapshot::Writer w;
    w.tag(snapshot::tag4("CKPT"));
    w.u64(kGoldenCursor);
    w.u64(sim::trace_fingerprint(b));
    s->save_state(w);
    snapshot::write_file(golden, w.buffer());
    GTEST_SKIP() << "golden snapshot regenerated at " << golden;
  }

  ASSERT_TRUE(fs::exists(golden))
      << "tests/data/golden.snap is missing; regenerate with "
         "PLANARIA_WRITE_GOLDEN=1";
  // Decode gate: the envelope validates, every component section loads, and
  // the resume cursor is intact. A failure here means the serialization
  // changed without a kFormatVersion bump (see snapshot.hpp's versioning
  // rule).
  auto s = warmed(sim::PrefetcherKind::kPlanaria, b, 0);
  const std::uint64_t cursor =
      sim::load_checkpoint(*s, golden, sim::trace_fingerprint(b));
  EXPECT_EQ(cursor, kGoldenCursor);

  // And the restored state is live: completing the run reproduces the
  // uninterrupted result bit for bit.
  s->run_sharded(b, cursor, b.size());
  const auto resumed = s->finish();
  const auto base = sim::Simulator::run(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t);
  EXPECT_TRUE(resumed == base);
}

}  // namespace
}  // namespace planaria
