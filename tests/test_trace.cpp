// Unit tests for the trace substrate: record IO, merging, generators, and
// the calibrated app registry.
#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/bitmap.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"

namespace planaria::trace {
namespace {

TraceRecord make_record(Address a, Cycle t, AccessType type = AccessType::kRead,
         DeviceId d = DeviceId::kGpu) {
  return TraceRecord{addr::block_align(a), t, type, d};
}

// ----------------------------------------------------------------- binary IO

TEST(TraceIo, BinaryRoundTrip) {
  std::vector<TraceRecord> records = {
      make_record(0x1000, 10),
      make_record(0x2040, 20, AccessType::kWrite, DeviceId::kDsp),
      make_record(0xFFFF'FFFF'F000, 30, AccessType::kRead, DeviceId::kCpuLittle),
  };
  std::stringstream ss;
  write_binary(ss, records);
  const auto back = read_binary(ss);
  EXPECT_EQ(back, records);
}

TEST(TraceIo, BinaryEmptyTrace) {
  std::stringstream ss;
  write_binary(ss, {});
  EXPECT_TRUE(read_binary(ss).empty());
}

TEST(TraceIo, BinaryRejectsBadMagic) {
  std::stringstream ss;
  ss << "this is not a planaria trace at all....";
  EXPECT_THROW(read_binary(ss), std::runtime_error);
}

TEST(TraceIo, BinaryRejectsTruncatedPayload) {
  std::vector<TraceRecord> records = {make_record(0x1000, 1),
                       make_record(0x2000, 2)};
  std::stringstream ss;
  write_binary(ss, records);
  std::string data = ss.str();
  data.resize(data.size() - 10);  // chop the last record
  std::stringstream truncated(data);
  EXPECT_THROW(read_binary(truncated), std::runtime_error);
}

TEST(TraceIo, BinaryAlignsAddressesToBlocks) {
  std::stringstream ss;
  write_binary(ss, {TraceRecord{0x1234'5678, 1, AccessType::kRead,
                 DeviceId::kCpuBig}});
  const auto back = read_binary(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].address % kBlockBytes, 0u);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = "/tmp/planaria_test_trace.bin";
  std::vector<TraceRecord> records = {make_record(0x40, 5)};
  write_binary_file(path, records);
  EXPECT_EQ(read_binary_file(path), records);
  std::remove(path.c_str());
}

TEST(TraceIo, FileOpenFailureThrows) {
  EXPECT_THROW(read_binary_file("/nonexistent/dir/trace.bin"),
               std::runtime_error);
  EXPECT_THROW(write_binary_file("/nonexistent/dir/trace.bin", {}),
               std::runtime_error);
}

// -------------------------------------------------------------------- csv IO

TEST(TraceIo, CsvRoundTrip) {
  std::vector<TraceRecord> records = {
      make_record(0x1000, 10),
      make_record(0x20C0, 25, AccessType::kWrite, DeviceId::kNpu),
  };
  std::stringstream ss;
  write_csv(ss, records);
  EXPECT_EQ(read_csv(ss), records);
}

TEST(TraceIo, CsvRejectsBadType) {
  std::stringstream ss("address,arrival,type,device\n0x40,1,X,gpu\n");
  EXPECT_THROW(read_csv(ss), std::runtime_error);
}

TEST(TraceIo, CsvRejectsBadDevice) {
  std::stringstream ss("address,arrival,type,device\n0x40,1,R,quantum\n");
  EXPECT_THROW(read_csv(ss), std::runtime_error);
}

TEST(TraceIo, CsvSkipsBlankLines) {
  std::stringstream ss("address,arrival,type,device\n\n0x40,1,R,gpu\n\n");
  EXPECT_EQ(read_csv(ss).size(), 1u);
}

// --------------------------------------------------------------------- merge

TEST(TraceMerge, MergesByArrival) {
  std::vector<std::vector<TraceRecord>> streams = {
      {make_record(0x0, 1), make_record(0x40, 5)},
      {make_record(0x80, 2), make_record(0xC0, 4)},
  };
  const auto merged = merge_sorted(streams);
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_GE(merged[i].arrival, merged[i - 1].arrival);
  }
}

TEST(TraceMerge, StableOnTies) {
  std::vector<std::vector<TraceRecord>> streams = {
      {make_record(0x0, 7)},
      {make_record(0x40, 7)},
  };
  const auto merged = merge_sorted(streams);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].address, 0x0u);  // stream 0 wins ties
}

TEST(TraceMerge, HandlesEmptyStreams) {
  EXPECT_TRUE(merge_sorted({}).empty());
  EXPECT_TRUE(merge_sorted({{}, {}}).empty());
  const auto merged = merge_sorted({{}, {make_record(0x0, 1)}, {}});
  EXPECT_EQ(merged.size(), 1u);
}

// --------------------------------------------------------------- generators

Pacing small_pacing(std::uint64_t records) {
  return Pacing{records, records * 20, 0, 0.5};
}

TEST(FootprintGenerator, ProducesRequestedCount) {
  Rng rng(1);
  const auto out = generate_footprint(FootprintParams{}, small_pacing(5000), rng);
  EXPECT_EQ(out.size(), 5000u);
}

TEST(FootprintGenerator, ArrivalsAreMonotone) {
  Rng rng(2);
  const auto out = generate_footprint(FootprintParams{}, small_pacing(3000), rng);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i].arrival, out[i - 1].arrival);
  }
}

TEST(FootprintGenerator, RespectsPageRegion) {
  FootprintParams params;
  params.base_page = 0x5000;
  params.page_span = 0x1000;
  params.twin_fraction = 0.0;  // twins may step slightly outside the span
  Rng rng(3);
  const auto out = generate_footprint(params, small_pacing(2000), rng);
  for (const auto& r : out) {
    const auto pn = addr::page_number(r.address);
    EXPECT_GE(pn, params.base_page);
    EXPECT_LT(pn, params.base_page + params.page_span);
  }
}

TEST(FootprintGenerator, FootprintsAreStableAcrossVisits) {
  // With mutation off, the set of blocks seen for a page must be constant.
  FootprintParams params;
  params.hot_pages = 4;
  params.page_span = 1024;
  params.mutate_p = 0.0;
  params.twin_fraction = 0.0;
  Rng rng(4);
  const auto out = generate_footprint(params, small_pacing(4000), rng);
  std::unordered_map<PageNumber, PageBitmap> bitmaps;
  for (const auto& r : out) {
    bitmaps[addr::page_number(r.address)].set(addr::block_in_page(r.address));
  }
  for (const auto& [pn, bm] : bitmaps) {
    EXPECT_LE(bm.popcount(), params.footprint_max);
  }
}

TEST(FootprintGenerator, RejectsBadParams) {
  FootprintParams params;
  params.footprint_min = 10;
  params.footprint_max = 5;
  Rng rng(5);
  EXPECT_THROW(generate_footprint(params, small_pacing(10), rng),
               std::invalid_argument);
  params = FootprintParams{};
  params.hot_pages = 0;
  EXPECT_THROW(generate_footprint(params, small_pacing(10), rng),
               std::invalid_argument);
}

TEST(NeighborGenerator, PagesStayInClusters) {
  NeighborParams params;
  params.clusters = 4;
  Rng rng(6);
  const auto out = generate_neighbor(params, small_pacing(3000), rng);
  for (const auto& r : out) {
    const auto pn = addr::page_number(r.address);
    bool in_cluster = false;
    for (int c = 0; c < params.clusters; ++c) {
      const PageNumber origin =
          params.base_page + static_cast<PageNumber>(c) * params.cluster_stride;
      if (pn >= origin && pn < origin + static_cast<PageNumber>(params.cluster_span)) {
        in_cluster = true;
        break;
      }
    }
    EXPECT_TRUE(in_cluster) << "page 0x" << std::hex << pn;
  }
}

TEST(NeighborGenerator, PerPagePerturbationIsStable) {
  // The same page must always deviate from the cluster base in the same bits.
  NeighborParams params;
  params.clusters = 2;
  params.new_page_rate = 0.3;
  Rng rng(7);
  const auto out = generate_neighbor(params, small_pacing(6000), rng);
  // Collect the union bitmap per page; visiting the same page twice must not
  // grow the set beyond one visit's footprint.
  std::unordered_map<PageNumber, PageBitmap> bitmaps;
  for (const auto& r : out) {
    bitmaps[addr::page_number(r.address)].set(addr::block_in_page(r.address));
  }
  for (const auto& [pn, bm] : bitmaps) {
    EXPECT_LE(bm.popcount(), params.base_footprint + params.perturb_bits);
    EXPECT_GE(bm.popcount(), 1);
  }
}

TEST(NeighborGenerator, RejectsBadParams) {
  NeighborParams params;
  params.clusters = 0;
  Rng rng(8);
  EXPECT_THROW(generate_neighbor(params, small_pacing(10), rng),
               std::invalid_argument);
}

TEST(StreamGenerator, EmitsSequentialRuns) {
  StreamParams params;
  params.streams = 1;
  params.run_min = params.run_max = 32;
  Rng rng(9);
  const auto out = generate_stream(params, small_pacing(64), rng);
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 1; i < 32; ++i) {
    EXPECT_EQ(out[i].address, out[i - 1].address + kBlockBytes);
  }
}

TEST(StreamGenerator, RejectsBadParams) {
  StreamParams params;
  params.block_stride = 0;
  Rng rng(10);
  EXPECT_THROW(generate_stream(params, small_pacing(10), rng),
               std::invalid_argument);
}

TEST(IrregularGenerator, TouchesFewBlocksPerPage) {
  IrregularParams params;
  Rng rng(11);
  const auto out = generate_irregular(params, small_pacing(5000), rng);
  std::unordered_map<PageNumber, PageBitmap> bitmaps;
  for (const auto& r : out) {
    bitmaps[addr::page_number(r.address)].set(addr::block_in_page(r.address));
  }
  // A single visit touches blocks_min..blocks_max scattered blocks; rare
  // page revisits can add another visit's worth.
  for (const auto& [pn, bm] : bitmaps) {
    EXPECT_LE(bm.popcount(), 3 * params.blocks_max);
  }
}

TEST(IrregularGenerator, RejectsBadParams) {
  IrregularParams params;
  params.blocks_min = 0;
  Rng rng(12);
  EXPECT_THROW(generate_irregular(params, small_pacing(10), rng),
               std::invalid_argument);
}

// ----------------------------------------------------------------- app trace

TEST(AppTrace, GeneratesMergedSortedTrace) {
  AppProfile app = app_by_name("HoK");
  const auto out = generate_app_trace(app, 20000);
  EXPECT_EQ(out.size(), 20000u);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i].arrival, out[i - 1].arrival);
  }
}

TEST(AppTrace, LengthIsExactForEveryApp) {
  // Lengths whose per-component weight budgets do not floor to a whole sum:
  // the remainder must land on a component, not vanish.
  for (const std::uint64_t n : {32768ull, 12345ull, 99999ull}) {
    for (const AppProfile& app : paper_apps()) {
      EXPECT_EQ(generate_app_trace(app, n).size(), n)
          << app.name << " at " << n << " records";
    }
  }
}

TEST(AppTrace, DeterministicForSameSeed) {
  AppProfile app = app_by_name("CFM");
  const auto a = generate_app_trace(app, 5000);
  const auto b = generate_app_trace(app, 5000);
  EXPECT_EQ(a, b);
}

TEST(AppTrace, DifferentSeedsDiffer) {
  AppProfile app = app_by_name("CFM");
  const auto a = generate_app_trace(app, 5000);
  app.seed += 1;
  const auto b = generate_app_trace(app, 5000);
  EXPECT_NE(a, b);
}

TEST(AppTrace, MixesMultipleDevices) {
  const auto out = generate_app_trace(app_by_name("HoK"), 20000);
  std::unordered_set<int> devices;
  for (const auto& r : out) devices.insert(static_cast<int>(r.device));
  EXPECT_GE(devices.size(), 3u);
}

TEST(AppTrace, MixesReadsAndWrites) {
  const auto out = generate_app_trace(app_by_name("HoK"), 20000);
  std::uint64_t writes = 0;
  for (const auto& r : out) writes += r.type == AccessType::kWrite ? 1 : 0;
  EXPECT_GT(writes, out.size() / 20);
  EXPECT_LT(writes, out.size() / 2);
}

TEST(AppTrace, RejectsZeroRecords) {
  EXPECT_THROW(generate_app_trace(app_by_name("HoK"), 0), std::invalid_argument);
}

TEST(AppTrace, RejectsZeroWeights) {
  AppProfile app = app_by_name("HoK");
  app.weight_footprint = app.weight_neighbor = app.weight_stream =
      app.weight_irregular = 0.0;
  EXPECT_THROW(generate_app_trace(app, 100), std::invalid_argument);
}

// ------------------------------------------------------------- golden bytes
//
// The generator's output is part of every downstream digest (SimResult
// bytes, serve fingerprints, the benchmark's recorded digests), and the RNG
// draw order is part of that output: a "faster" generator that draws one
// value more, fewer or in another order changes every trace. These pins
// must never move under an optimisation; only a deliberate change to the
// generated traffic re-records them, and says so.

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// 64-bit FNV-1a over every field of every record, then the length.
std::uint64_t record_hash(const std::vector<TraceRecord>& records) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const TraceRecord& r : records) {
    h = fnv1a_mix(h, r.address);
    h = fnv1a_mix(h, r.arrival);
    h = fnv1a_mix(h, static_cast<std::uint64_t>(r.type));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(r.device));
  }
  return fnv1a_mix(h, records.size());
}

std::string hex_list(const std::vector<std::uint64_t>& values) {
  std::ostringstream os;
  os << std::hex;
  for (const std::uint64_t v : values) os << "0x" << v << "ull, ";
  return os.str();
}

TEST(TraceGolden, AppTraceBytesArePinned) {
  // {8000, 32000, 50000} records per app, apps in table order.
  const std::vector<std::uint64_t> expected = {
      0xF31E7C2460FAB655ull, 0xB2117F7FD4BE5863ull, 0x8B782C407E2B578Full,  // CFM
      0x2BB4E299D33C35A0ull, 0x6B74B476A7659A94ull, 0xEAC49F19B0DD2D80ull,  // HoK
      0xB786F4E9390BF711ull, 0xA1D61D714AC32242ull, 0x4B5426C251B16B8Dull,  // Id-V
      0x34F239D5A9FDE269ull, 0x0E96D80DADE125E1ull, 0xEAF69C326D9EB150ull,  // QSM
      0x0D6399FF91B674A9ull, 0xE27605B2476799D7ull, 0x3FFCFF2701D8BEFEull,  // TikT
      0x80D20B838A74A8B1ull, 0x83EEAECB61BB6025ull, 0x5615F50D93B9196Bull,  // Fort
      0x1312FE85E06D82EEull, 0xFA7CA6CDF93F6521ull, 0x3A899B7CD257D10Eull,  // HI3
      0x1C0AD89908E9642Dull, 0x6CDF26890EC1F835ull, 0x87CB661D87058455ull,  // KO
      0x9B9210276BFD17C2ull, 0xD56F7EBBF77F8222ull, 0xA1142502009CD805ull,  // NBA2
      0x9266CECAB2C1BA96ull, 0x022C6B8A72E7EBACull, 0xF1559F06AC102488ull,  // PM
  };
  std::vector<std::uint64_t> actual;
  for (const AppProfile& app : paper_apps()) {
    for (const std::uint64_t n : {8000ull, 32000ull, 50000ull}) {
      actual.push_back(record_hash(generate_app_trace(app, n)));
    }
  }
  EXPECT_EQ(actual, expected) << "actual: " << hex_list(actual);
}

TEST(TraceGolden, RngSequencesArePinned) {
  constexpr std::uint64_t kSeed = 0x5EED'0016ull;
  std::vector<std::uint64_t> next, below, dbl;
  Rng a(kSeed), b(kSeed), c(kSeed);
  for (int i = 0; i < 16; ++i) {
    next.push_back(a.next());
    below.push_back(b.next_below(1000));
    dbl.push_back(std::bit_cast<std::uint64_t>(c.next_double()));
  }
  EXPECT_EQ(next, (std::vector<std::uint64_t>{
      0x102C67B0819E1F1Cull, 0xC69E416F22D712A8ull, 0xC20889924019E1A7ull,
      0x8D5643ED90955157ull, 0x336EC585ECFF6D71ull, 0xB9E967C09EB67493ull,
      0x86ECFA37563C89F4ull, 0xE8EAD0A638C0EF7Eull, 0x3561CBFC89117F57ull,
      0x4F12091F2EC6D2F7ull, 0xC3E4B50D7696519Cull, 0x40F38A1A32ABADAEull,
      0x98E27925DEAE4082ull, 0xEA59EE54BD134DFFull, 0x0349A04E6EADF4FDull,
      0x0E40D7B93F7F23C2ull}))
      << "actual: " << hex_list(next);
  EXPECT_EQ(below, (std::vector<std::uint64_t>{
      63, 775, 757, 552, 200, 726, 527, 909,
      208, 308, 765, 253, 597, 915, 12, 55}))
      << "actual: " << hex_list(below);
  EXPECT_EQ(dbl, (std::vector<std::uint64_t>{
      0x3FB02C67B0819E18ull, 0x3FE8D3C82DE45AE2ull, 0x3FE841113248033Cull,
      0x3FE1AAC87DB212AAull, 0x3FC9B762C2F67FB4ull, 0x3FE73D2CF813D6CEull,
      0x3FE0DD9F46EAC791ull, 0x3FED1D5A14C7181Dull, 0x3FCAB0E5FE4488BCull,
      0x3FD3C48247CBB1B4ull, 0x3FE87C96A1AED2CAull, 0x3FD03CE2868CAAEAull,
      0x3FE31C4F24BBD5C8ull, 0x3FED4B3DCA97A269ull, 0x3F8A4D0273756F80ull,
      0x3FAC81AF727EFE40ull}))
      << "actual: " << hex_list(dbl);
}

TEST(TraceGolden, ZipfSequencesArePinned) {
  // s = 0.5 is the generator's regime (every app's zipf_s is 0.3-0.52);
  // s = 1.0 pins the logarithmic branch.
  constexpr std::uint64_t kSeed = 0x5EED'0016ull;
  std::vector<std::uint64_t> half, one;
  Rng a(kSeed), b(kSeed);
  const ZipfSampler zipf_half(1000, 0.5), zipf_one(1000, 1.0);
  for (int i = 0; i < 16; ++i) {
    half.push_back(zipf_half(a));
    one.push_back(zipf_one(b));
  }
  EXPECT_EQ(half, (std::vector<std::uint64_t>{
      8, 612, 586, 320, 51, 540, 293, 832,
      54, 109, 596, 76, 372, 842, 1, 7}))
      << "actual: " << hex_list(half);
  EXPECT_EQ(one, (std::vector<std::uint64_t>{
      1, 212, 187, 45, 4, 150, 38, 536,
      4, 8, 197, 5, 61, 557, 1, 1}))
      << "actual: " << hex_list(one);
}

// ------------------------------------------------------------------ registry

TEST(AppRegistry, HasAllTenPaperApps) {
  const auto names = app_names();
  ASSERT_EQ(names.size(), 10u);
  const std::vector<std::string> expected = {"CFM", "HoK", "Id-V", "QSM",
                              "TikT", "Fort", "HI3", "KO",
                              "NBA2", "PM"};
  EXPECT_EQ(names, expected);
}

TEST(AppRegistry, LookupByNameMatches) {
  for (const auto& name : app_names()) {
    EXPECT_EQ(app_by_name(name).name, name);
  }
}

TEST(AppRegistry, UnknownNameThrows) {
  EXPECT_THROW(app_by_name("DOOM"), std::out_of_range);
}

TEST(AppRegistry, WeightsSumToOne) {
  for (const auto& app : paper_apps()) {
    const double sum = app.weight_footprint + app.weight_neighbor +
        app.weight_stream + app.weight_irregular;
    EXPECT_NEAR(sum, 1.0, 1e-9) << app.name;
  }
}

TEST(AppRegistry, SeedsAreUnique) {
  std::unordered_set<std::uint64_t> seeds;
  for (const auto& app : paper_apps()) seeds.insert(app.seed);
  EXPECT_EQ(seeds.size(), paper_apps().size());
}

}  // namespace
}  // namespace planaria::trace
