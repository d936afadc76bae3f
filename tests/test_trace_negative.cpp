// Negative-path corpus for the trace boundary: hostile or damaged input fed
// to every reader (binary, CSV, DRAMSim2, ChampSim) under both recovery
// policies. kThrow must fail precisely (location in the message, no giant
// allocation first); kRecover must salvage what is intact, tally what it
// skipped, and still refuse input that is the wrong format outright.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/contract.hpp"
#include "trace/import.hpp"
#include "trace/io.hpp"

namespace {

namespace check = planaria::check;
namespace trace = planaria::trace;
using planaria::AccessType;
using planaria::DeviceId;
using trace::RecoveryPolicy;
using trace::TraceReadReport;
using trace::TraceRecord;

std::vector<TraceRecord> sample_records(std::size_t n) {
  std::vector<TraceRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r;
    r.address = 0x1000 + (i << 6);
    r.arrival = 10 * i;
    r.type = i % 2 == 0 ? AccessType::kRead : AccessType::kWrite;
    r.device = DeviceId::kCpuBig;
    out.push_back(r);
  }
  return out;
}

std::string valid_binary(std::size_t n) {
  std::ostringstream os;
  trace::write_binary(os, sample_records(n));
  return os.str();
}

// ---------------------------------------------------------------------------
// Binary reader

TEST(BinaryNegative, RoundTripReportsCleanRead) {
  std::istringstream is(valid_binary(5));
  TraceReadReport report;
  const auto out = trace::read_binary(is, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(report.records, 5u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_FALSE(report.truncated);
}

TEST(BinaryNegative, TruncatedHeaderThrowsUnderBothPolicies) {
  for (auto policy : {RecoveryPolicy::kThrow, RecoveryPolicy::kRecover}) {
    std::istringstream empty("");
    EXPECT_THROW(trace::read_binary(empty, policy), std::runtime_error);
    std::istringstream partial(valid_binary(1).substr(0, 7));
    EXPECT_THROW(trace::read_binary(partial, policy), std::runtime_error);
  }
}

TEST(BinaryNegative, BadMagicThrowsUnderBothPolicies) {
  std::string bytes = valid_binary(2);
  bytes[0] = 'X';  // not a planaria trace: nothing is salvageable
  for (auto policy : {RecoveryPolicy::kThrow, RecoveryPolicy::kRecover}) {
    std::istringstream is(bytes);
    EXPECT_THROW(trace::read_binary(is, policy), std::runtime_error);
  }
}

TEST(BinaryNegative, BadVersionThrowsUnderBothPolicies) {
  std::string bytes = valid_binary(2);
  bytes[4] = 0x7F;  // version field
  for (auto policy : {RecoveryPolicy::kThrow, RecoveryPolicy::kRecover}) {
    std::istringstream is(bytes);
    EXPECT_THROW(trace::read_binary(is, policy), std::runtime_error);
  }
}

/// The headline bugfix: a 16-byte stream whose header claims 2^61 records
/// used to size a multi-gigabyte reserve before reading a single record. The
/// count must be validated against the stream's real size first.
TEST(BinaryNegative, HugeHeaderCountIsRejectedBeforeAllocation) {
  std::string bytes = valid_binary(0);
  const std::uint64_t huge = std::uint64_t{1} << 61;
  std::memcpy(&bytes[8], &huge, sizeof(huge));

  std::istringstream is(bytes);
  try {
    trace::read_binary(is, RecoveryPolicy::kThrow);
    FAIL() << "huge header count must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("header claims"), std::string::npos);
  }

  // kRecover: the honest answer is "zero whole records", delivered instantly.
  std::istringstream is2(bytes);
  TraceReadReport report;
  const auto out =
      trace::read_binary(is2, RecoveryPolicy::kRecover, &report);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(report.truncated);
  EXPECT_GE(report.errors, 1u);
}

TEST(BinaryNegative, TruncatedPayloadSalvagesCompletePrefix) {
  // 4 declared records but the last one cut mid-record.
  std::string bytes = valid_binary(4);
  bytes.resize(bytes.size() - 10);

  std::istringstream throwing(bytes);
  EXPECT_THROW(trace::read_binary(throwing, RecoveryPolicy::kThrow),
               std::runtime_error);

  std::istringstream recovering(bytes);
  TraceReadReport report;
  const auto out =
      trace::read_binary(recovering, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.records, 3u);
  const auto reference = sample_records(4);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].arrival, reference[i].arrival);
  }
}

TEST(BinaryNegative, CorruptEnumBytesSkippedUnderRecover) {
  // Record 1's type byte lives at header + record + offset-of-type.
  std::string bytes = valid_binary(3);
  bytes[16 + 24 + 16] = 0x55;  // type byte of record 1: neither R nor W

  std::istringstream throwing(bytes);
  EXPECT_THROW(trace::read_binary(throwing, RecoveryPolicy::kThrow),
               std::runtime_error);

  std::istringstream recovering(bytes);
  TraceReadReport report;
  const auto out =
      trace::read_binary(recovering, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(report.errors, 1u);
  ASSERT_EQ(report.messages.size(), 1u);
  EXPECT_NE(report.messages[0].find("record 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CSV reader

TEST(CsvNegative, EmptyFileThrowsOrReportsEmpty) {
  std::istringstream throwing("");
  EXPECT_THROW(trace::read_csv(throwing, RecoveryPolicy::kThrow),
               std::runtime_error);

  std::istringstream recovering("");
  TraceReadReport report;
  const auto out = trace::read_csv(recovering, RecoveryPolicy::kRecover, &report);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(report.errors, 1u);
}

TEST(CsvNegative, GarbageLinesSkippedAndCounted) {
  const std::string csv =
      "address,arrival,type,device\n"
      "0x1000,5,R,cpu-big\n"
      "complete garbage\n"
      "0x2000,notanumber,R,cpu-big\n"
      "0x3000,15,Q,cpu-big\n"
      "0x4000,20,W,no-such-device\n"
      "0x5000,25,W,cpu-big\n";

  std::istringstream throwing(csv);
  EXPECT_THROW(trace::read_csv(throwing, RecoveryPolicy::kThrow),
               std::runtime_error);

  std::istringstream recovering(csv);
  TraceReadReport report;
  const auto out = trace::read_csv(recovering, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(report.errors, 4u);
  EXPECT_EQ(report.records, 2u);
  // Each defect message carries its line number for the operator.
  ASSERT_GE(report.messages.size(), 1u);
  EXPECT_NE(report.messages[0].find("line 3"), std::string::npos);
}

TEST(CsvNegative, WindowsLineEndingsParseClean) {
  const std::string csv =
      "address,arrival,type,device\r\n"
      "0x1000,5,R,cpu-big\r\n"
      "0x2000,10,W,cpu-big\r\n";
  std::istringstream is(csv);
  // The '\r' of each CRLF pair used to poison the device-name match; a CRLF
  // file must now parse identically to its LF twin, even under kThrow.
  const auto out = trace::read_csv(is, RecoveryPolicy::kThrow);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].arrival, 5u);
  EXPECT_EQ(out[1].type, AccessType::kWrite);
}

TEST(CsvNegative, OverlongLineRejected) {
  std::string csv = "address,arrival,type,device\n";
  csv += std::string(trace::kMaxLineBytes + 1, 'a');
  csv += "\n0x1000,5,R,cpu-big\n";
  std::istringstream is(csv);
  TraceReadReport report;
  const auto out = trace::read_csv(is, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(report.errors, 1u);
  EXPECT_NE(report.messages[0].find("overlong"), std::string::npos);
}

TEST(CsvNegative, ErrorBudgetExhaustionThrowsEvenUnderRecover) {
  std::string csv = "address,arrival,type,device\n";
  for (std::uint64_t i = 0; i < trace::kDefaultErrorBudget + 2; ++i) {
    csv += "garbage line\n";
  }
  std::istringstream is(csv);
  TraceReadReport report;
  try {
    trace::read_csv(is, RecoveryPolicy::kRecover, &report);
    FAIL() << "budget exhaustion must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("error budget"), std::string::npos);
  }
  // Only the first few messages are retained verbatim; the rest only count.
  EXPECT_EQ(report.messages.size(), trace::kMaxReportedErrors);
  EXPECT_GT(report.errors, trace::kDefaultErrorBudget);
}

// ---------------------------------------------------------------------------
// Importers (DRAMSim2, ChampSim CSV)

TEST(ImportNegative, Dramsim2GarbageSkippedAndCounted) {
  const std::string trc =
      "; comment line\n"
      "0x1000 P_MEM_RD 5\n"
      "not a trace line\n"
      "ZZZZ P_MEM_RD 15\n"
      "0x3000 P_BOGUS_TYPE 20\n"
      "0x4000 P_MEM_WR 25\n";

  std::istringstream throwing(trc);
  EXPECT_THROW(trace::read_dramsim2(throwing, RecoveryPolicy::kThrow),
               std::runtime_error);

  std::istringstream recovering(trc);
  TraceReadReport report;
  const auto out =
      trace::read_dramsim2(recovering, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(report.errors, 3u);
  ASSERT_GE(report.messages.size(), 1u);
  EXPECT_NE(report.messages[0].find("line 3"), std::string::npos);
}

TEST(ImportNegative, Dramsim2ThrowCarriesLineNumber) {
  std::istringstream is("0x1000 P_MEM_RD 5\nbroken\n");
  try {
    trace::read_dramsim2(is, RecoveryPolicy::kThrow);
    FAIL() << "malformed line must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ImportNegative, Dramsim2OverlongLineRejected) {
  std::string trc = "0x1000 P_MEM_RD 5\n";
  trc += "0x2000 " + std::string(trace::kMaxLineBytes, 'R') + " 10\n";
  std::istringstream is(trc);
  TraceReadReport report;
  const auto out =
      trace::read_dramsim2(is, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(report.errors, 1u);
}

TEST(ImportNegative, ChampsimGarbageSkippedAndCounted) {
  const std::string csv =
      "address,is_write,cycle\n"
      "0x1000,0,5\n"
      "0x2000,1\n"
      "GGGG,0,15\n"
      "0x4000,1,20\n";

  std::istringstream throwing(csv);
  EXPECT_THROW(trace::read_champsim_csv(throwing, RecoveryPolicy::kThrow),
               std::runtime_error);

  std::istringstream recovering(csv);
  TraceReadReport report;
  const auto out =
      trace::read_champsim_csv(recovering, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(report.errors, 2u);
}

TEST(ImportNegative, ChampsimWindowsLineEndingsParseClean) {
  std::istringstream is("address,is_write,cycle\r\n0x1000,0,5\r\n0x2000,1,10\r\n");
  const auto out = trace::read_champsim_csv(is, RecoveryPolicy::kThrow);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].type, AccessType::kWrite);
}

TEST(ImportNegative, EmptyStreamsYieldEmptyTraces) {
  // Text formats treat an empty stream as an empty capture, not an error —
  // only the binary format (whose header is mandatory) rejects it.
  std::istringstream a(""), b("");
  EXPECT_TRUE(trace::read_dramsim2(a, RecoveryPolicy::kThrow).empty());
  EXPECT_TRUE(trace::read_champsim_csv(b, RecoveryPolicy::kThrow).empty());
}

// ---------------------------------------------------------------------------
// merge_sorted precondition (previously unchecked)

TEST(MergeSortedNegative, UnsortedInputFiresTimingContract) {
  std::vector<std::vector<TraceRecord>> streams(2);
  streams[0] = sample_records(3);  // sorted: arrivals 0, 10, 20
  streams[1] = sample_records(3);
  std::swap(streams[1][0], streams[1][2]);  // 20, 10, 0: out of order

  check::CountingScope scope;
  check::reset_violations();
  const auto merged = trace::merge_sorted(streams);
  EXPECT_GT(check::violation_count(check::Category::kTimingMonotonicity), 0u);
  // Best-effort merge still delivers every record.
  EXPECT_EQ(merged.size(), 6u);
  check::reset_violations();
}

TEST(MergeSortedNegative, UnsortedRecordIsPlacedByItsClaimedArrival) {
  // Under kRecover an out-of-order record joins the merge as its stream's
  // head at the arrival it claims, ties going to the lower stream index.
  const auto at = [](planaria::Cycle arrival, planaria::Address address) {
    return TraceRecord{address, arrival, AccessType::kRead, DeviceId::kGpu};
  };
  std::vector<std::vector<TraceRecord>> streams = {
      {at(0, 0x000), at(10, 0x040), at(20, 0x080), at(30, 0x0C0)},
      {at(15, 0x100), at(5, 0x140), at(20, 0x180)}};

  check::CountingScope scope;
  check::reset_violations();
  const auto merged = trace::merge_sorted(streams);
  EXPECT_EQ(check::violation_count(check::Category::kTimingMonotonicity), 1u);
  const std::vector<TraceRecord> expected = {
      streams[0][0], streams[0][1], streams[1][0], streams[1][1],
      streams[0][2], streams[1][2], streams[0][3]};
  EXPECT_EQ(merged, expected);
  check::reset_violations();
}

TEST(MergeSortedNegative, SortedInputStaysSilent) {
  std::vector<std::vector<TraceRecord>> streams(2);
  streams[0] = sample_records(4);
  streams[1] = sample_records(4);

  check::CountingScope scope;
  check::reset_violations();
  const auto merged = trace::merge_sorted(streams);
  EXPECT_EQ(check::total_violations(), 0u);
  ASSERT_EQ(merged.size(), 8u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_GE(merged[i].arrival, merged[i - 1].arrival);
  }
  check::reset_violations();
}

}  // namespace
