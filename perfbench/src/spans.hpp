// In-memory span recorder for the traced run.
//
// The benchmark opens a span around each call it makes into a layer's public
// functions; nothing inside the simulator is instrumented. Spans carry the id
// of the span that caused them, so a layer's self time (its duration minus
// the part of that interval its children cover) can be derived afterwards.
// Children may run concurrently on pool threads; the covered part is the
// union of their intervals, never the sum.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  std::size_t parent = 0;  ///< 0 = root; otherwise id of the causing span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 0;  ///< work items the call processed (records, ...)
};

class SpanRecorder {
 public:
  /// Opens a span and returns its id (ids start at 1). Thread-safe.
  std::size_t open(std::string name, std::size_t parent = 0) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(SpanRecord{std::move(name), parent, t, t, 0});
    return spans_.size();
  }

  /// Closes span `id`, attaching the number of items it processed.
  void close(std::size_t id, std::uint64_t count = 0) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord& s = spans_.at(id - 1);
    s.end_ns = t;
    s.count = count;
  }

  /// Records an already-timed span (used by tests and by callers that time
  /// a region themselves).
  std::size_t add(SpanRecord record) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(record));
    return spans_.size();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time of span `id`: its duration minus the union of its direct
  /// children's intervals, clipped to its own interval.
  std::int64_t self_ns(std::size_t id) const {
    const SpanRecord& s = spans_.at(id - 1);
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const SpanRecord& c : spans_) {
      if (&c == &s || c.parent != id) continue;
      const std::int64_t a = std::max(c.start_ns, s.start_ns);
      const std::int64_t b = std::min(c.end_ns, s.end_ns);
      if (b > a) kids.emplace_back(a, b);
    }
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = 0;
    bool open_run = false;
    for (const auto& [a, b] : kids) {
      if (open_run && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open_run) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open_run = true;
    }
    if (open_run) covered += cur_b - cur_a;
    return (s.end_ns - s.start_ns) - covered;
  }

  struct Totals {
    std::uint64_t spans = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t count = 0;
  };

  /// Per-name totals over every recorded span.
  std::map<std::string, Totals> totals() const {
    std::map<std::string, Totals> out;
    for (std::size_t id = 1; id <= spans_.size(); ++id) {
      const SpanRecord& s = spans_[id - 1];
      Totals& t = out[s.name];
      ++t.spans;
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += self_ns(id);
      t.count += s.count;
    }
    return out;
  }

 private:
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null recorder makes it a no-op, which is how untraced runs
/// share the traced code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, std::size_t parent = 0)
      : rec_(rec), id_(rec ? rec->open(std::move(name), parent) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_, count_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(std::uint64_t n) { count_ = n; }
  std::size_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::size_t id_;
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
