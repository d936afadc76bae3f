#include "trace/io.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/contract.hpp"
#include "io/vfs.hpp"

namespace planaria::trace {

namespace {

struct BinaryHeader {
  std::uint32_t magic;
  std::uint16_t version;
  std::uint16_t flags;
  std::uint64_t count;
};
static_assert(sizeof(BinaryHeader) == 16);

struct BinaryRecord {
  std::uint64_t address;
  std::uint64_t arrival;
  std::uint8_t type;
  std::uint8_t device;
  std::uint8_t pad[6];
};
static_assert(sizeof(BinaryRecord) == 24);

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("trace IO: " + what);
}

/// One defect: throw under kThrow, otherwise tally it into `report` and check
/// the budget — a stream that keeps producing garbage past the budget is the
/// wrong format, and pressing on would only manufacture a bogus trace.
void defect(RecoveryPolicy policy, TraceReadReport& report,
            const std::string& what) {
  if (policy == RecoveryPolicy::kThrow) fail(what);
  report.note(what);
  if (report.errors > kDefaultErrorBudget) {
    fail("error budget exhausted (" + std::to_string(report.errors) +
         " defects; last: " + what + ")");
  }
}

/// Bytes left in `is` past the current position, or npos-style -1 for
/// non-seekable streams.
std::int64_t remaining_bytes(std::istream& is) {
  const std::istream::pos_type cur = is.tellg();
  if (cur == std::istream::pos_type(-1)) return -1;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(cur);
  if (end == std::istream::pos_type(-1) || end < cur) return -1;
  return static_cast<std::int64_t>(end - cur);
}

}  // namespace

void TraceReadReport::note(std::string message) {
  ++errors;
  if (messages.size() < kMaxReportedErrors) {
    messages.push_back(std::move(message));
  }
}

void write_binary(std::ostream& os, const std::vector<TraceRecord>& records) {
  BinaryHeader h{kTraceMagic, kTraceVersion, 0, records.size()};
  os.write(reinterpret_cast<const char*>(&h), sizeof(h));
  for (const auto& r : records) {
    BinaryRecord b{};
    b.address = r.address;
    b.arrival = r.arrival;
    b.type = static_cast<std::uint8_t>(r.type);
    b.device = static_cast<std::uint8_t>(r.device);
    os.write(reinterpret_cast<const char*>(&b), sizeof(b));
  }
  if (!os) fail("write failed");
}

void write_binary_file(const std::string& path,
                       const std::vector<TraceRecord>& records) {
  // Serialize through the stream encoder, land the bytes through the io VFS
  // so the container gets the durable tmp/fsync/rename discipline and the
  // storage-fault drills cover this write site too.
  std::ostringstream os(std::ios::binary);
  write_binary(os, records);
  const std::string image = os.str();
  try {
    io::write_file_durable(path, {io::ByteSpan{image.data(), image.size()}});
  } catch (const io::IoError& e) {
    fail(e.what());
  }
}

std::vector<TraceRecord> read_binary(std::istream& is, RecoveryPolicy policy,
                                     TraceReadReport* report) {
  TraceReadReport local;
  TraceReadReport& rep = report != nullptr ? *report : local;

  BinaryHeader h{};
  is.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!is || is.gcount() != sizeof(h)) fail("truncated header");
  // A stream whose identity bytes are wrong is not a damaged trace, it is not
  // a trace: there is no salvageable prefix, so these throw in every policy.
  if (h.magic != kTraceMagic) fail("bad magic (not a planaria trace)");
  if (h.version != kTraceVersion) {
    fail("unsupported trace version " + std::to_string(h.version));
  }

  // The header's record count is untrusted input: bound it by the bytes the
  // stream actually holds BEFORE sizing any allocation from it. A 16-byte
  // file claiming 2^61 records previously drove a multi-GB reserve; now it is
  // a precise error (kThrow) or a salvage of what is really there (kRecover).
  std::uint64_t expect = h.count;
  const std::int64_t avail = remaining_bytes(is);
  if (avail >= 0) {
    const auto whole_records =
        static_cast<std::uint64_t>(avail) / sizeof(BinaryRecord);
    if (h.count > whole_records) {
      if (policy == RecoveryPolicy::kThrow) {
        fail("header claims " + std::to_string(h.count) +
             " records but the stream holds only " +
             std::to_string(whole_records) + " (" + std::to_string(avail) +
             " bytes)");
      }
      rep.note("truncated: header claims " + std::to_string(h.count) +
               " records, stream holds " + std::to_string(whole_records));
      rep.truncated = true;
      expect = whole_records;
    }
  }

  std::vector<TraceRecord> out;
  // For a non-seekable stream the count could not be validated; cap the
  // upfront reservation and let the vector grow against real data instead.
  constexpr std::uint64_t kBlindReserveCap = 1u << 20;
  out.reserve(avail >= 0 ? expect : std::min(expect, kBlindReserveCap));
  for (std::uint64_t i = 0; i < expect; ++i) {
    BinaryRecord b{};
    is.read(reinterpret_cast<char*>(&b), sizeof(b));
    if (!is || is.gcount() != sizeof(b)) {
      // Reachable when the byte count was unknowable (non-seekable stream) or
      // the stream shrank mid-read; the complete-record prefix stands.
      if (policy == RecoveryPolicy::kThrow) fail("truncated payload");
      rep.note("truncated payload at record " + std::to_string(i));
      rep.truncated = true;
      break;
    }
    if (b.type > 1) {
      defect(policy, rep,
             "corrupt record " + std::to_string(i) + ": bad access type");
      continue;
    }
    if (b.device >= static_cast<std::uint8_t>(DeviceId::kCount)) {
      defect(policy, rep,
             "corrupt record " + std::to_string(i) + ": bad device id");
      continue;
    }
    out.push_back(TraceRecord{addr::block_align(b.address), b.arrival,
                              static_cast<AccessType>(b.type),
                              static_cast<DeviceId>(b.device)});
  }
  rep.records = out.size();
  return out;
}

std::vector<TraceRecord> read_binary_file(const std::string& path,
                                          RecoveryPolicy policy,
                                          TraceReadReport* report) {
  // Read through the io VFS like every other file, then parse the image with
  // the same hardened stream reader the in-memory callers use.
  std::vector<std::uint8_t> bytes;
  try {
    bytes = io::read_file(path);
  } catch (const io::IoError& e) {
    fail(e.what());
  }
  std::istringstream is(std::string(bytes.begin(), bytes.end()),
                        std::ios::binary);
  return read_binary(is, policy, report);
}

void write_csv(std::ostream& os, const std::vector<TraceRecord>& records) {
  os << "address,arrival,type,device\n";
  for (const auto& r : records) {
    os << "0x" << std::hex << r.address << std::dec << ',' << r.arrival << ','
       << (r.type == AccessType::kRead ? 'R' : 'W') << ','
       << device_name(r.device) << '\n';
  }
  if (!os) fail("csv write failed");
}

std::vector<TraceRecord> read_csv(std::istream& is, RecoveryPolicy policy,
                                  TraceReadReport* report) {
  TraceReadReport local;
  TraceReadReport& rep = report != nullptr ? *report : local;
  std::vector<TraceRecord> out;
  std::string line;
  if (!std::getline(is, line)) {
    if (policy == RecoveryPolicy::kThrow) fail("empty csv");
    rep.note("empty csv");
    return out;
  }
  // Header row is required but its exact spelling is not enforced.
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    // Tolerate Windows line endings: getline keeps the '\r' of a CRLF pair,
    // which used to poison the device-name match of every row.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::string where = " at line " + std::to_string(line_no);
    if (line.size() > kMaxLineBytes) {
      defect(policy, rep, "csv overlong line" + where);
      continue;
    }
    std::istringstream ls(line);
    std::string addr_s, arrival_s, type_s, device_s;
    if (!std::getline(ls, addr_s, ',') || !std::getline(ls, arrival_s, ',') ||
        !std::getline(ls, type_s, ',') || !std::getline(ls, device_s)) {
      defect(policy, rep, "csv parse error" + where);
      continue;
    }
    TraceRecord r;
    try {
      r.address = addr::block_align(std::stoull(addr_s, nullptr, 0));
      r.arrival = std::stoull(arrival_s);
    } catch (const std::exception&) {
      // stoull's own invalid_argument/out_of_range carry no location; rethrow
      // as the reader's uniform defect with the line number.
      defect(policy, rep, "csv bad number" + where);
      continue;
    }
    if (type_s == "R") {
      r.type = AccessType::kRead;
    } else if (type_s == "W") {
      r.type = AccessType::kWrite;
    } else {
      defect(policy, rep, "csv bad access type" + where);
      continue;
    }
    r.device = DeviceId::kCpuBig;
    bool matched = false;
    for (int d = 0; d < static_cast<int>(DeviceId::kCount); ++d) {
      if (device_s == device_name(static_cast<DeviceId>(d))) {
        r.device = static_cast<DeviceId>(d);
        matched = true;
        break;
      }
    }
    if (!matched) {
      defect(policy, rep, "csv bad device" + where);
      continue;
    }
    out.push_back(r);
  }
  rep.records = out.size();
  return out;
}

std::vector<TraceRecord> merge_sorted(
    const std::vector<std::vector<TraceRecord>>& streams) {
  // k-way merge by (arrival, stream index) keeps the merge stable. k is the
  // generator's component count (at most four), so a linear scan for the
  // minimum head is cheaper than a heap's push and pop per record.
  struct Head {
    Cycle arrival;
    const TraceRecord* at;
    const TraceRecord* end;
  };
  std::vector<Head> heads;  // live streams only, in stream-index order
  std::size_t total = 0;
  for (const auto& stream : streams) {
    total += stream.size();
    if (!stream.empty()) {
      heads.push_back(Head{stream.front().arrival, stream.data(),
                           stream.data() + stream.size()});
    }
  }
  std::vector<TraceRecord> out;
  out.reserve(total);
  while (!heads.empty()) {
    // Strict < keeps the lowest stream index on equal arrivals.
    std::size_t best = 0;
    for (std::size_t h = 1; h < heads.size(); ++h) {
      if (heads[h].arrival < heads[best].arrival) best = h;
    }
    Head& h = heads[best];
    out.push_back(*h.at);
    if (++h.at == h.end) {
      heads.erase(heads.begin() + static_cast<std::ptrdiff_t>(best));
      continue;
    }
    // The documented precondition ("inputs must each already be sorted")
    // was never checked; an unsorted stream silently produced an unsorted
    // merge that the simulator then rejected far from the cause. O(1) per
    // record: each element is compared against its stream predecessor once,
    // when it becomes the stream head. Under kRecover the merge proceeds
    // best-effort, placing the record by its claimed arrival.
    PLANARIA_REQUIRE_MSG(kTimingMonotonicity, h.at->arrival >= h.arrival,
                         "merge_sorted input stream is not sorted by arrival");
    h.arrival = h.at->arrival;
  }
  return out;
}

}  // namespace planaria::trace
