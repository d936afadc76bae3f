// Storage VFS: every file the system writes or reads goes through here.
//
// The resilience layers above (snapshot envelopes, checkpoint rotation, the
// serve envelope, trace files, sweep cells, the bench trajectory)
// were built on an I/O substrate they trusted blindly: rename without fsync,
// error codes dropped, no failure path at all on appends. This module is the
// single choke point that fixes both halves of that problem:
//
//   * Durable write discipline. write_file_durable() stages bytes in
//     "<path>.tmp", fsyncs the file, renames it over `path`, then fsyncs the
//     parent directory — so after it returns, the bytes survive a power cut,
//     and a crash at any instant leaves `path` holding either the old
//     complete file or the new complete file, never a torn hybrid and never
//     a zero-length directory entry (the rename-without-dir-fsync hole).
//   * Injectable deterministic faults. An IoFaultInjector installed through
//     set_fault_injector() turns every operation into a seeded Bernoulli
//     trial per storage-fault class — EIO on read/write, ENOSPC mid-write,
//     torn/short writes at a seeded byte offset, rename failure, fsync loss,
//     read-side bit-rot. The shim mirrors the src/fault idiom exactly: two
//     private Rng streams per class (decision + target), roll()/record()
//     separation so injected() counts *applied* faults, and a splitmix64
//     for_site() derivative so independent drill sites draw decorrelated
//     sequences from one plan. planaria-audit --stage storm drives the whole
//     recovery chain through this shim.
//
// Layering: io sits below trace and snapshot (both route their file writes
// here) and above common, whose header-only Rng it draws from; it links no
// library but the warnings interface.
//
// Failure contract: write_file_durable/read_file/rename_file throw IoError
// (callers in higher layers translate into their own error types);
// append_line returns false instead — a trajectory append is advisory and
// must never take down a bench run.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace planaria::io {

/// Raised on any storage failure, real or injected. The message always names
/// the operation and the path so a drill log reads like a kernel log.
class IoError : public std::runtime_error {
 public:
  IoError(const std::string& op, const std::string& path,
          const std::string& detail)
      : std::runtime_error("io: " + op + " " + path + ": " + detail) {}
};

/// Every injectable storage fault, one per failure mode a disk can serve up.
enum class IoFaultClass : std::uint8_t {
  kReadError = 0,  ///< EIO surfaced from a read
  kWriteError,     ///< EIO surfaced from a write, before any byte lands
  kEnospc,         ///< device full mid-write; a prefix lands, the op fails
  kTornWrite,      ///< only a seeded prefix persists, yet the op "succeeds"
  kRenameFail,     ///< rename into place fails; the old file is untouched
  kFsyncLoss,      ///< fsync lied: a seeded suffix of the renamed file is lost
  kBitRot,         ///< one seeded bit of a read's payload flips in flight
  kCount,
};

inline constexpr int kIoFaultClassCount = static_cast<int>(IoFaultClass::kCount);

const char* io_fault_class_name(IoFaultClass fault_class);

/// Which storage faults to inject, how often, from which seed. A default
/// plan injects nothing; the zero-rate path consumes no randomness, so an
/// unarmed shim leaves every operation byte-identical to no shim at all.
struct IoFaultPlan {
  std::uint64_t seed = 0x10F4017;
  /// Per-opportunity injection probability per class, in [0, 1].
  double rate[kIoFaultClassCount] = {};

  bool enabled(IoFaultClass fault_class) const {
    return rate[static_cast<int>(fault_class)] > 0.0;
  }
  bool any_enabled() const;

  /// Throws std::invalid_argument on out-of-range rates.
  void validate() const;

  /// Plan with exactly one class armed — the storm audit's unit of isolation.
  static IoFaultPlan single(IoFaultClass fault_class, double rate,
                            std::uint64_t seed);

  /// Site-scoped derivative: same classes and rates, seed re-mixed with the
  /// site id through a splitmix64 finalizer, so each drill site (a checkpoint
  /// directory, a trace container, a serve envelope) draws a fully
  /// decorrelated fault sequence from one plan.
  IoFaultPlan for_site(std::uint64_t site_id) const;
};

/// Turns an IoFaultPlan into a deterministic decision sequence. Mirrors
/// fault::FaultInjector: each class owns TWO private streams — one for the
/// inject/skip decision, one for choosing the corruption target (the byte
/// offset of a torn write, the bit of a rot flip) — so a decision that does
/// not fire never consumes target randomness, and arming one class never
/// perturbs another's stream. Not thread-safe; install one per serial drill.
class IoFaultInjector {
 public:
  explicit IoFaultInjector(const IoFaultPlan& plan, std::uint64_t stream = 0);

  /// One Bernoulli decision on the class's private stream. Consumes no
  /// randomness when the class is disabled.
  bool roll(IoFaultClass fault_class);

  /// Target-selection stream for a fired decision. Never consumed by roll().
  Rng& rng(IoFaultClass fault_class) {
    return aux_[static_cast<int>(fault_class)];
  }

  /// The applying site acknowledges one injected fault; injected() counts
  /// *applied* faults (a torn-write roll against an empty payload, for
  /// example, is a decision but not a fault).
  void record(IoFaultClass fault_class) {
    ++injected_[static_cast<int>(fault_class)];
  }

  std::uint64_t injected(IoFaultClass fault_class) const {
    return injected_[static_cast<int>(fault_class)];
  }
  std::uint64_t total_injected() const;

  const IoFaultPlan& plan() const { return plan_; }

 private:
  IoFaultPlan plan_;
  Rng decision_[kIoFaultClassCount];
  Rng aux_[kIoFaultClassCount];
  std::uint64_t injected_[kIoFaultClassCount] = {};
};

/// Installs `shim` as the process-wide fault tap (nullptr disarms); returns
/// the previous one. Production never installs a shim — the hooks then cost
/// one pointer load per operation.
IoFaultInjector* set_fault_injector(IoFaultInjector* shim);
IoFaultInjector* fault_injector();

/// RAII arm/disarm for tests and audit drills.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(IoFaultInjector* shim)
      : prev_(set_fault_injector(shim)) {}
  ~ScopedFaultInjector() { set_fault_injector(prev_); }
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  IoFaultInjector* prev_;
};

/// One contiguous piece of a file image. write_file_durable takes a list of
/// spans so callers with a separately-held header and payload (the snapshot
/// envelope) need not concatenate them first.
struct ByteSpan {
  const void* data = nullptr;
  std::size_t size = 0;
};

/// Durable atomic write: stage in "<path>.tmp", fsync the file, rename over
/// `path`, fsync the parent directory. After a clean return the bytes are on
/// stable storage; after a throw, `path` still holds whatever complete file
/// it held before (the tmp is removed best-effort). Throws IoError on any
/// real or injected failure.
void write_file_durable(const std::string& path,
                        const std::vector<ByteSpan>& spans);
void write_file_durable(const std::string& path,
                        const std::vector<std::uint8_t>& bytes);

/// Whole-file read. Throws IoError when the file cannot be opened or read
/// (real or injected EIO); an armed bit-rot class may flip one seeded bit of
/// the returned image — which is exactly what the CRC layers above exist to
/// catch.
std::vector<std::uint8_t> read_file(const std::string& path);

/// Durable rename: `from` must exist; after return `to` names it and the
/// parent directory entry is synced. Throws IoError on real or injected
/// failure, leaving `from` and any previous `to` untouched on the injected
/// path.
void rename_file(const std::string& from, const std::string& to);

/// Appends `text` (caller includes any trailing newline) to `path`, creating
/// it if needed. Returns false — never throws — on real or injected failure:
/// trajectory appends are advisory.
bool append_line(const std::string& path, const std::string& text) noexcept;

/// True when `path` names an existing file (never throws).
bool exists(const std::string& path) noexcept;

/// Best-effort unlink; returns true when the entry was removed.
bool remove_file(const std::string& path) noexcept;

}  // namespace planaria::io
