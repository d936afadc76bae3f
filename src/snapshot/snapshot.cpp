#include "snapshot/snapshot.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "io/vfs.hpp"

namespace planaria::snapshot {

namespace {

constexpr char kMagic[8] = {'P', 'L', 'N', 'S', 'N', 'A', 'P', '1'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 4;

/// Slice-by-8 tables: table[0] is the classic bytewise table; table[k][b]
/// is the CRC of byte b followed by k zero bytes, so eight table lookups
/// advance the register over eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

/// Little-endian load that is independent of host byte order and alignment.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const CrcTables t = make_crc_tables();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Reader::truncated(std::size_t wanted) const {
  throw SnapshotError("truncated payload (wanted " + std::to_string(wanted) +
                      " bytes, " + std::to_string(size_ - pos_) + " left)");
}

bool Reader::b() {
  const std::uint8_t v = u8();
  if (v > 1) throw SnapshotError("bool field holds " + std::to_string(v));
  return v == 1;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint32_t n = u32();
  if (remaining() < n) throw SnapshotError("truncated string");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void Reader::expect_tag(std::uint32_t expected) {
  const std::uint32_t got = u32();
  if (got != expected) {
    throw SnapshotError("section tag mismatch (got 0x" +
                        std::to_string(got) + ", expected 0x" +
                        std::to_string(expected) + ")");
  }
}

void Reader::require_end() const {
  if (!at_end()) {
    throw SnapshotError(std::to_string(remaining()) +
                        " unread bytes after decode");
  }
}

void Writer::end_section(std::size_t token) {
  if (token < 8 || token > buf_.size()) {
    throw SnapshotError("end_section token does not match a begin_section");
  }
  const std::uint64_t len = buf_.size() - token;
  for (int i = 0; i < 8; ++i) {
    buf_[token - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  }
}

std::uint64_t Reader::enter_section(std::uint32_t expected) {
  expect_tag(expected);
  const std::uint64_t len = u64();
  if (len > remaining()) {
    throw SnapshotError("section length " + std::to_string(len) +
                        " exceeds the " + std::to_string(remaining()) +
                        " bytes remaining");
  }
  return len;
}

void Reader::skip(std::uint64_t bytes) {
  if (bytes > remaining()) {
    throw SnapshotError("skip past end of payload");
  }
  pos_ += static_cast<std::size_t>(bytes);
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& payload) {
  Writer header;
  for (char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kFormatVersion);
  header.u64(payload.size());
  header.u32(crc32(payload.data(), payload.size()));

  // The VFS supplies the durability discipline (tmp -> fsync -> rename ->
  // directory fsync) and the storage-fault hooks; this layer only frames the
  // envelope. IoError is translated so snapshot callers keep a single
  // exception type.
  try {
    const auto& h = header.buffer();
    io::write_file_durable(path, {io::ByteSpan{h.data(), h.size()},
                                  io::ByteSpan{payload.data(), payload.size()}});
  } catch (const io::IoError& e) {
    throw SnapshotError(e.what());
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> image;
  try {
    image = io::read_file(path);
  } catch (const io::IoError& e) {
    throw SnapshotError(e.what());
  }

  if (image.size() < kHeaderBytes) {
    throw SnapshotError(path + ": shorter than the envelope header");
  }
  if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
    throw SnapshotError(path + ": bad magic");
  }
  Reader hr(image.data() + sizeof(kMagic), kHeaderBytes - sizeof(kMagic));
  const std::uint32_t version = hr.u32();
  if (version != kFormatVersion) {
    throw SnapshotError(path + ": format version " + std::to_string(version) +
                        " (this build reads " +
                        std::to_string(kFormatVersion) + ")");
  }
  const std::uint64_t length = hr.u64();
  const std::uint32_t expected_crc = hr.u32();

  // The length field is validated against the bytes actually present (the
  // whole-file read already bounded the allocation by the real file size, so
  // a corrupt length is a precise error, not a huge alloc).
  if (image.size() - kHeaderBytes != length) {
    throw SnapshotError(path + ": payload length field disagrees with file size");
  }
  std::vector<std::uint8_t> payload(image.begin() + kHeaderBytes, image.end());
  if (crc32(payload.data(), payload.size()) != expected_crc) {
    throw SnapshotError(path + ": CRC mismatch");
  }
  return payload;
}

}  // namespace planaria::snapshot
