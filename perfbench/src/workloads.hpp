// The benchmark's workloads (see README.md for why each exists).
//
//   sweep-serial  every Table-2 app x every PrefetcherKind, one cell after
//                 another on one thread, each through sim::run_checkpointed.
//   sweep-pooled  the same grid fanned out over one 4-lane ThreadPool, each
//                 cell also sharding its channels on that pool.
//   serve-fleet   one SessionServer streaming a tenant fleet in 1000-record
//                 quanta, checkpointing, killed once and resumed.
//
// The workload seed is mixed into every AppProfile::seed (and every
// SessionSpec::user_seed), so the simulator only ever sees generated inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"
#include "serve/serve.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;          ///< traced run: per-layer metrics
  std::string expect_digest;   ///< recorded digest for this seed; may be empty
  std::string tmp_dir;         ///< fresh per-run scratch directory
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet metrics;  ///< end-to-end (untraced run) or per-layer (traced run)
  MetricSet report;   ///< printed only: failed_share, sample counts, ...
  std::vector<std::string> failures;  ///< one line per failed check
  std::string digest;
  /// Traced run: per-name totals of the recorded spans.
  std::map<std::string, SpanRecorder::Totals> spans;
};

const std::vector<std::string>& workload_names();

/// Runs one workload for `opt.seconds` of timed passes plus its checks.
RunResult run_workload(const RunOptions& opt);

/// Digest of one untimed pass (used to record the per-seed reference
/// digests). Both sweeps share one digest, so "sweep" names them.
std::string pass_digest(const std::string& workload, std::uint64_t seed,
                        const std::string& tmp_dir);

/// splitmix64 finalizer used to mix the workload seed into input seeds.
std::uint64_t mix64(std::uint64_t x);

/// Serve tick classes, decided from the counter deltas around one tick().
enum class TickClass { kSteady, kAdmit, kCheckpoint };
TickClass classify_tick(const planaria::serve::ServeCounters& before,
                        const planaria::serve::ServeCounters& after);

/// Digest of every SimResult's save_state bytes, in the given order.
std::string results_digest(const std::vector<planaria::sim::SimResult>& rs);

/// Digest of a finished server: outcomes(), counters() and the summary.
std::string serve_digest(const planaria::serve::SessionServer& server);

}  // namespace perfbench
