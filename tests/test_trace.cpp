// Unit tests for the trace substrate: record IO, merging, generators, and
// the calibrated app registry.
#include <gtest/gtest.h>

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
