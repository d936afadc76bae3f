// Per-layer probes for the traced run.
//
// Each probe calls one layer's public functions directly on the workload's
// own inputs and times those calls from the outside; nothing inside src/ is
// instrumented. Host-time metrics are ns per unit of work; simulated metrics
// are exact and repeat bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "report.hpp"
#include "sim/config.hpp"
#include "sim/simulator.hpp"
#include "trace/batch.hpp"

namespace perfbench {

/// trace.fingerprint_ns_per_record: sim::trace_fingerprint over each batch.
void probe_fingerprint(const std::vector<planaria::trace::TraceBatch>& batches,
                       MetricSet& out);

/// cache.*, prefetch.ns_per_demand.* / candidates_per_demand.*, dram.*:
/// replays the per-channel demand stream through SystemCache (misses fill at
/// once), the resulting DemandEvents through a fresh prefetcher of every
/// kind, and the miss + writeback stream through a DramChannel.
void probe_replays(const std::vector<planaria::trace::TraceBatch>& batches,
                   const planaria::sim::SimConfig& cfg, MetricSet& out);

/// snapshot.bytes / encode_ms / decode_ms and io.durable_write_ms on a
/// Planaria Simulator stopped halfway through `batch`.
void probe_snapshot(const planaria::trace::TraceBatch& batch,
                    const planaria::sim::SimConfig& cfg,
                    const std::string& tmp_dir, MetricSet& out);

/// Host time and simulated result of one kind over a set of traces.
struct KindRun {
  planaria::sim::PrefetcherKind kind{};
  std::int64_t host_ns = 0;
  std::uint64_t records = 0;
  std::vector<planaria::sim::SimResult> results;
};

/// Runs every kind over every batch, feeding each Simulator in `chunk`-record
/// run_sharded calls (the serving loop's quantum shape), with the
/// (kind, batch) tasks fanned over `pool`. Returns the busy share of the
/// pool (summed task time / (lanes x wall)) through `busy_share`.
std::vector<KindRun> probe_sim_chunked(
    const std::vector<planaria::trace::TraceBatch>& batches,
    const planaria::sim::SimConfig& cfg, std::uint64_t chunk,
    planaria::common::ThreadPool& pool, double& busy_share);

/// sim.ns_per_record.<kind> plus the simulated per-kind metrics
/// (cache.hit_rate, prefetch.issued_per_record / accuracy /
/// dropped_per_issued, dram.bursts_per_record / bus_utilization).
void kind_metrics(const std::vector<KindRun>& runs, MetricSet& out);

}  // namespace perfbench
