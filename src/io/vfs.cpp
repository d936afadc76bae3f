#include "io/vfs.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#define PLANARIA_IO_HAVE_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace planaria::io {

namespace {

/// One splitmix64 step (golden-ratio add, then the shared finalizer) — the
/// seed expander the xoshiro authors recommend.
std::uint64_t mix64(std::uint64_t x) {
  return splitmix_finalize(x + 0x9E3779B97F4A7C15ull);
}

std::string errno_detail(const std::string& fallback) {
  return errno != 0 ? std::string(std::strerror(errno)) : fallback;
}

/// RAII stdio handle; close() disarms it so the success path can check the
/// close result explicitly while the error path still cleans up.
struct File {
  std::FILE* f = nullptr;
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
  int close() {
    std::FILE* h = f;
    f = nullptr;
    return h != nullptr ? std::fclose(h) : 0;
  }
};

/// fsyncs the directory holding `path` so the rename's directory entry is on
/// stable storage. Opening a directory read-only is not portable to every
/// filesystem, so an open failure is tolerated; a failed fsync on an opened
/// directory is a real durability loss and throws.
void fsync_parent_dir(const std::string& path) {
#if PLANARIA_IO_HAVE_POSIX
  const std::size_t slash = path.find_last_of('/');
  std::string dir;
  if (slash == std::string::npos) {
    dir = ".";
  } else if (slash == 0) {
    dir = "/";
  } else {
    dir = path.substr(0, slash);
  }
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    throw IoError("fsync-dir", dir, errno_detail("fsync failed"));
  }
#else
  (void)path;
#endif
}

/// Truncates the *final* file to `len` bytes — the observable aftermath of a
/// lost fsync followed by a power cut: the rename's directory entry
/// survived, the tail pages did not.
void truncate_file(const std::string& path, std::size_t len) {
#if PLANARIA_IO_HAVE_POSIX
  if (::truncate(path.c_str(), static_cast<off_t>(len)) != 0) {
    throw IoError("truncate", path, errno_detail("truncate failed"));
  }
#else
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes.resize(len < bytes.size() ? len : bytes.size());
  File out;
  out.f = std::fopen(path.c_str(), "wb");
  if (out.f == nullptr) throw IoError("truncate", path, "cannot reopen");
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), out.f) != bytes.size()) {
    throw IoError("truncate", path, "rewrite failed");
  }
#endif
}

IoFaultInjector* g_shim = nullptr;

}  // namespace

const char* io_fault_class_name(IoFaultClass fault_class) {
  switch (fault_class) {
    case IoFaultClass::kReadError: return "read-error";
    case IoFaultClass::kWriteError: return "write-error";
    case IoFaultClass::kEnospc: return "enospc";
    case IoFaultClass::kTornWrite: return "torn-write";
    case IoFaultClass::kRenameFail: return "rename-fail";
    case IoFaultClass::kFsyncLoss: return "fsync-loss";
    case IoFaultClass::kBitRot: return "bit-rot";
    case IoFaultClass::kCount: break;
  }
  return "?";
}

bool IoFaultPlan::any_enabled() const {
  for (const double r : rate) {
    if (r > 0.0) return true;
  }
  return false;
}

void IoFaultPlan::validate() const {
  for (int i = 0; i < kIoFaultClassCount; ++i) {
    if (rate[i] < 0.0 || rate[i] > 1.0) {
      throw std::invalid_argument(
          std::string("io fault rate for ") +
          io_fault_class_name(static_cast<IoFaultClass>(i)) +
          " outside [0, 1]");
    }
  }
}

IoFaultPlan IoFaultPlan::single(IoFaultClass fault_class, double rate_value,
                                std::uint64_t seed_value) {
  IoFaultPlan plan;
  plan.seed = seed_value;
  plan.rate[static_cast<int>(fault_class)] = rate_value;
  plan.validate();
  return plan;
}

IoFaultPlan IoFaultPlan::for_site(std::uint64_t site_id) const {
  IoFaultPlan derived = *this;
  derived.seed = mix64(seed ^ mix64(site_id));
  return derived;
}

IoFaultInjector::IoFaultInjector(const IoFaultPlan& plan, std::uint64_t stream)
    : plan_(plan),
      decision_{
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 0))),
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 1))),
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 2))),
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 3))),
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 4))),
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 5))),
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 6))),
      },
      aux_{
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 8))),
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 9))),
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 10))),
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 11))),
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 12))),
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 13))),
          Rng(mix64(plan.seed ^ mix64(stream * 16 + 14))),
      } {
  plan_.validate();
}

bool IoFaultInjector::roll(IoFaultClass fault_class) {
  const int i = static_cast<int>(fault_class);
  if (plan_.rate[i] <= 0.0) return false;
  return decision_[i].chance(plan_.rate[i]);
}

std::uint64_t IoFaultInjector::total_injected() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : injected_) total += n;
  return total;
}

IoFaultInjector* set_fault_injector(IoFaultInjector* shim) {
  IoFaultInjector* prev = g_shim;
  g_shim = shim;
  return prev;
}

IoFaultInjector* fault_injector() { return g_shim; }

void write_file_durable(const std::string& path,
                        const std::vector<ByteSpan>& spans) {
  std::size_t total = 0;
  for (const ByteSpan& s : spans) total += s.size;
  IoFaultInjector* shim = fault_injector();
  const std::string tmp = path + ".tmp";

  if (shim != nullptr && shim->roll(IoFaultClass::kWriteError)) {
    shim->record(IoFaultClass::kWriteError);
    throw IoError("write", tmp, "injected I/O error");
  }
  // A fired ENOSPC/torn decision picks its cut point on the class's private
  // target stream: ENOSPC lands a prefix then fails the operation; a torn
  // write lands a prefix and *succeeds* — the silent-corruption case the CRC
  // envelope above must catch.
  bool enospc = false;
  bool torn = false;
  std::size_t limit = total;
  if (shim != nullptr && shim->roll(IoFaultClass::kEnospc)) {
    enospc = true;
    limit = static_cast<std::size_t>(
        shim->rng(IoFaultClass::kEnospc).next_below(total + 1));
  } else if (shim != nullptr && total > 0 &&
             shim->roll(IoFaultClass::kTornWrite)) {
    torn = true;
    limit = static_cast<std::size_t>(
        shim->rng(IoFaultClass::kTornWrite).next_below(total));
  }

  {
    File out;
    errno = 0;
    out.f = std::fopen(tmp.c_str(), "wb");
    if (out.f == nullptr) {
      throw IoError("create", tmp, errno_detail("cannot create"));
    }
    std::size_t written = 0;
    for (const ByteSpan& s : spans) {
      if (written >= limit) break;
      const std::size_t take = s.size < limit - written ? s.size
                                                        : limit - written;
      if (take > 0 && std::fwrite(s.data, 1, take, out.f) != take) {
        out.close();
        std::remove(tmp.c_str());
        throw IoError("write", tmp, errno_detail("short write"));
      }
      written += take;
    }
    if (std::fflush(out.f) != 0) {
      out.close();
      std::remove(tmp.c_str());
      throw IoError("write", tmp, errno_detail("flush failed"));
    }
    if (enospc) {
      out.close();
      std::remove(tmp.c_str());
      shim->record(IoFaultClass::kEnospc);
      throw IoError("write", tmp, "injected ENOSPC after " +
                                      std::to_string(limit) + " of " +
                                      std::to_string(total) + " bytes");
    }
    bool fsync_lost = false;
    if (shim != nullptr && shim->roll(IoFaultClass::kFsyncLoss)) {
      fsync_lost = true;  // fsync "succeeds" without persisting anything
    } else {
#if PLANARIA_IO_HAVE_POSIX
      if (::fsync(::fileno(out.f)) != 0) {
        out.close();
        std::remove(tmp.c_str());
        throw IoError("fsync", tmp, errno_detail("fsync failed"));
      }
#endif
    }
    if (out.close() != 0) {
      std::remove(tmp.c_str());
      throw IoError("close", tmp, errno_detail("close failed"));
    }
    if (shim != nullptr && shim->roll(IoFaultClass::kRenameFail)) {
      std::remove(tmp.c_str());
      shim->record(IoFaultClass::kRenameFail);
      throw IoError("rename", tmp + " -> " + path, "injected rename failure");
    }
    errno = 0;
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      throw IoError("rename", tmp + " -> " + path,
                    errno_detail("rename failed"));
    }
    // A torn write only *applies* once the truncated image is visible at
    // `path` — a torn tmp that never survived its rename corrupted nothing.
    if (torn) shim->record(IoFaultClass::kTornWrite);
    if (fsync_lost && written > 0) {
      // Power-cut aftermath of the lied-about fsync: the rename's directory
      // entry survived, a seeded suffix of the data pages did not.
      const std::size_t keep = static_cast<std::size_t>(
          shim->rng(IoFaultClass::kFsyncLoss).next_below(written));
      truncate_file(path, keep);
      shim->record(IoFaultClass::kFsyncLoss);
    }
  }
  fsync_parent_dir(path);
}

void write_file_durable(const std::string& path,
                        const std::vector<std::uint8_t>& bytes) {
  write_file_durable(path, {ByteSpan{bytes.data(), bytes.size()}});
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  IoFaultInjector* shim = fault_injector();
  if (shim != nullptr && shim->roll(IoFaultClass::kReadError)) {
    shim->record(IoFaultClass::kReadError);
    throw IoError("read", path, "injected I/O error");
  }
  File in;
  errno = 0;
  in.f = std::fopen(path.c_str(), "rb");
  if (in.f == nullptr) {
    throw IoError("open", path, errno_detail("cannot open"));
  }
  if (std::fseek(in.f, 0, SEEK_END) != 0) {
    throw IoError("read", path, "seek failed");
  }
  const long size = std::ftell(in.f);
  if (size < 0 || std::fseek(in.f, 0, SEEK_SET) != 0) {
    throw IoError("read", path, "seek failed");
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (!bytes.empty() &&
      std::fread(bytes.data(), 1, bytes.size(), in.f) != bytes.size()) {
    throw IoError("read", path, errno_detail("short read"));
  }
  if (shim != nullptr && !bytes.empty() &&
      shim->roll(IoFaultClass::kBitRot)) {
    const std::uint64_t bit =
        shim->rng(IoFaultClass::kBitRot).next_below(bytes.size() * 8);
    bytes[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    shim->record(IoFaultClass::kBitRot);
  }
  return bytes;
}

void rename_file(const std::string& from, const std::string& to) {
  IoFaultInjector* shim = fault_injector();
  if (shim != nullptr && shim->roll(IoFaultClass::kRenameFail)) {
    shim->record(IoFaultClass::kRenameFail);
    throw IoError("rename", from + " -> " + to, "injected rename failure");
  }
  errno = 0;
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    throw IoError("rename", from + " -> " + to,
                  errno_detail("rename failed"));
  }
  fsync_parent_dir(to);
}

bool append_line(const std::string& path, const std::string& text) noexcept {
  IoFaultInjector* shim = fault_injector();
  if (shim != nullptr) {
    // Either class fails the append whole; a torn tail on an append-only
    // JSON-lines file is modelled by the parser-side hardening instead.
    const bool write_error = shim->roll(IoFaultClass::kWriteError);
    const bool enospc = shim->roll(IoFaultClass::kEnospc);
    if (write_error) {
      shim->record(IoFaultClass::kWriteError);
      return false;
    }
    if (enospc) {
      shim->record(IoFaultClass::kEnospc);
      return false;
    }
  }
  File out;
  out.f = std::fopen(path.c_str(), "a");
  if (out.f == nullptr) return false;
  if (std::fputs(text.c_str(), out.f) == EOF) {
    return false;
  }
  return out.close() == 0;
}

bool exists(const std::string& path) noexcept {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

bool remove_file(const std::string& path) noexcept {
  std::error_code ec;
  return std::filesystem::remove(path, ec);
}

}  // namespace planaria::io
