// Experiment runner: the sweep machinery behind every figure bench.
//
// Caches generated app traces (generation is a nontrivial fraction of a run)
// and executes (app x prefetcher) grids, returning SimResults keyed for the
// figure printers. Record counts default to a laptop-friendly length and can
// be scaled with the PLANARIA_RECORDS environment variable to approach the
// paper's 67-71M-record traces.
//
// The grid is embarrassingly parallel (no state crosses cells, and inside a
// cell no state crosses channels), so the runner owns an optional
// common::ThreadPool sized by PLANARIA_THREADS: sweep() fans the cells out
// over the pool, each cell additionally shards its simulation by channel on
// the same pool, and the trace cache hands concurrent cells one shared
// generation per app through std::call_once. Results are bit-identical to the
// serial path at every thread count (tests/test_parallel.cpp holds this).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "trace/apps.hpp"

namespace planaria::sim {

/// Reads PLANARIA_RECORDS (decimal, e.g. "2000000") or returns `fallback`.
std::uint64_t records_from_env(std::uint64_t fallback);

/// Parses a record count given on a command line; throws
/// std::invalid_argument on zero or anything but a plain decimal u64.
std::uint64_t records_from_arg(const char* text);

// lint: suppress(snapshot-missing) sweep progress persists per-cell as .result files, not via the codec
class ExperimentRunner {
 public:
  explicit ExperimentRunner(
      SimConfig config = {},
      std::uint64_t records = records_from_env(400000),
      std::size_t threads = common::ThreadPool::threads_from_env(1));

  /// Generated (and cached) bus trace for one paper app, in the columnar
  /// (SoA) form every cell consumes. Thread-safe: concurrent sweep cells block
  /// on one std::call_once generation instead of racing to generate their own
  /// copies.
  const trace::TraceBatch& batch_for(const std::string& app);

  /// One cell of the grid (channel-sharded across the pool when one exists).
  SimResult run(const std::string& app, PrefetcherKind kind);

  /// Runs `kinds` on every paper app, fanning the (app x kind) cells over the
  /// thread pool when `threads > 1`. Results keyed [app][kind-name] and
  /// bit-identical to the serial sweep at any thread count.
  ///
  /// A throwing cell propagates out of sweep(). Recovery is by rerun: with a
  /// checkpoint dir set, every cell that completed has stored its result (on
  /// the pool, every cell but the failing ones runs before the rethrow;
  /// serially, the cells before it), and rerunning the same sweep reloads
  /// those verbatim and runs only the rest.
  std::map<std::string, std::map<std::string, SimResult>> sweep(
      const std::vector<PrefetcherKind>& kinds, bool verbose = false);

  const SimConfig& config() const { return config_; }
  std::uint64_t records() const { return records_; }
  std::size_t threads() const { return pool_ ? pool_->size() : 1; }
  common::ThreadPool* pool() { return pool_.get(); }

  /// Planaria table configuration used for the planaria/* kinds; mutable so
  /// ablation benches can sweep its parameters.
  core::PlanariaConfig& planaria_config() { return planaria_; }
  prefetch::BopConfig& bop_config() { return bop_; }
  prefetch::SppConfig& spp_config() { return spp_; }

  void clear_trace_cache();

  /// Sweep-level checkpointing (DESIGN.md §11). With a directory set — by
  /// default from PLANARIA_CHECKPOINT_DIR — every completed (app x kind) cell
  /// persists its SimResult atomically; a restarted sweep reloads those cells
  /// verbatim instead of re-simulating them, and a corrupt or mismatched cell
  /// file is simply rerun. Cells additionally checkpoint mid-run (each under
  /// its own label, so concurrent cells never collide) when
  /// PLANARIA_CHECKPOINT_EVERY is also set. Empty disables everything.
  void set_checkpoint_dir(std::string dir) { checkpoint_dir_ = std::move(dir); }
  const std::string& checkpoint_dir() const { return checkpoint_dir_; }

 private:
  /// Map node holding one lazily generated trace; std::map guarantees the
  /// node (and its once_flag) stays put while cells share it.
  struct TraceEntry {
    std::once_flag once;
    trace::TraceBatch batch;
  };

  TraceEntry& entry_for(const std::string& app);

  SimResult run_cell(const std::string& app, PrefetcherKind kind,
                     const PrefetcherFactory& factory);

  std::string cell_path(const std::string& app, const char* kind) const;
  bool try_load_cell(const std::string& app, const char* kind,
                     SimResult& out) const;
  void store_cell(const std::string& app, const char* kind,
                  const SimResult& result) const;

  SimConfig config_;
  std::uint64_t records_;
  core::PlanariaConfig planaria_;
  prefetch::BopConfig bop_;
  prefetch::SppConfig spp_;
  std::unique_ptr<common::ThreadPool> pool_;  ///< null when threads == 1
  std::mutex traces_mutex_;                   ///< guards map shape only
  std::map<std::string, TraceEntry> traces_;
  std::string checkpoint_dir_;        ///< empty = no sweep checkpointing
  std::uint64_t checkpoint_every_ = 0;  ///< mid-cell interval; 0 = cell-only
};

/// Geometric-mean helper for "average over apps" rows (the paper's averages
/// of ratios are reported as arithmetic means of per-app percentages; both
/// are provided).
double mean(const std::vector<double>& xs);
double geomean_ratio(const std::vector<double>& ratios);

}  // namespace planaria::sim
