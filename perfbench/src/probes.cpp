#include "probes.hpp"

#include <algorithm>
#include <stdexcept>

#include "cache/system_cache.hpp"
#include "dram/channel.hpp"
#include "io/vfs.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/checkpoint.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace psim = planaria::sim;
namespace ptrace = planaria::trace;
using planaria::AccessType;

namespace {

double per(std::int64_t ns, std::uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

/// One channel's demand stream as the cache replay saw it.
struct ChannelStream {
  int channel = 0;
  std::vector<planaria::prefetch::DemandEvent> events;
  std::vector<planaria::dram::DramRequest> dram;  ///< misses + writebacks
};

std::vector<std::uint32_t> channel_indices(const ptrace::TraceBatch& b,
                                           int ch) {
  std::vector<std::uint32_t> idx;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (planaria::addr::channel_of(b.addresses()[i]) == ch) {
      idx.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return idx;
}

planaria::dram::DramRequest dram_request(std::uint64_t block,
                                         planaria::Cycle at, bool write) {
  planaria::dram::DramRequest r;
  r.local_block = block;
  r.arrival = at;
  r.is_write = write;
  r.tag = block;
  return r;
}

}  // namespace

void probe_fingerprint(const std::vector<ptrace::TraceBatch>& batches,
                       MetricSet& out) {
  std::int64_t ns = 0;
  std::uint64_t records = 0;
  for (const auto& b : batches) {
    const std::int64_t t0 = now_ns();
    psim::trace_fingerprint(b);
    ns += now_ns() - t0;
    records += b.size();
  }
  out.set("trace.fingerprint_ns_per_record", "ns", per(ns, records));
}

void probe_replays(const std::vector<ptrace::TraceBatch>& batches,
                   const psim::SimConfig& cfg, MetricSet& out) {
  using planaria::cache::FillSource;
  using planaria::cache::SystemCache;
  using planaria::dram::AddressMapper;

  // Cache: one untimed pass records the streams the later layers replay,
  // a second pass on a fresh slice times the access/fill calls alone.
  std::vector<ChannelStream> streams;
  std::int64_t cache_ns = 0;
  std::uint64_t cache_accesses = 0;
  for (const auto& b : batches) {
    for (int ch = 0; ch < planaria::kChannels; ++ch) {
      const auto idx = channel_indices(b, ch);
      ChannelStream st;
      st.channel = ch;
      st.events.reserve(idx.size());
      SystemCache sc(cfg.cache);
      for (const std::uint32_t i : idx) {
        const planaria::Address a = b.addresses()[i];
        const planaria::Cycle at = b.arrivals()[i];
        const AccessType type = ptrace::TraceBatch::meta_type(b.meta()[i]);
        const std::uint64_t block = AddressMapper::local_block(a);
        const auto r = sc.access(block, type);
        planaria::prefetch::DemandEvent ev;
        ev.local_block = block;
        ev.page = planaria::addr::page_number(a);
        ev.block_in_segment = planaria::addr::block_in_segment(a);
        ev.now = at;
        ev.type = type;
        ev.device = ptrace::TraceBatch::meta_device(b.meta()[i]);
        ev.sc_hit = r.hit;
        ev.hit_was_prefetch = r.first_use_of_prefetch;
        st.events.push_back(ev);
        if (r.hit) continue;
        if (type == AccessType::kWrite) {
          st.dram.push_back(dram_request(block, at, true));
          continue;
        }
        st.dram.push_back(dram_request(block, at, false));
        const auto f = sc.fill(block, FillSource::kDemand);
        if (f.has_writeback) {
          st.dram.push_back(dram_request(f.writeback_block, at, true));
        }
      }

      SystemCache timed(cfg.cache);
      const std::int64_t t0 = now_ns();
      for (const auto& ev : st.events) {
        const auto r = timed.access(ev.local_block, ev.type);
        if (!r.hit && ev.type == AccessType::kRead) {
          timed.fill(ev.local_block, FillSource::kDemand);
        }
      }
      cache_ns += now_ns() - t0;
      cache_accesses += st.events.size();
      streams.push_back(std::move(st));
    }
  }
  out.set("cache.ns_per_access", "ns", per(cache_ns, cache_accesses));

  // Prefetchers: every kind but none sees the same DemandEvents; the fill
  // callback follows each demand read miss, as the cache replay filled it.
  std::vector<planaria::prefetch::PrefetchRequest> cands;
  for (const auto kind : psim::all_prefetcher_kinds()) {
    if (kind == psim::PrefetcherKind::kNone) continue;
    const auto factory = psim::make_prefetcher_factory(kind);
    std::int64_t ns = 0;
    std::uint64_t demands = 0;
    std::uint64_t candidates = 0;
    for (const auto& st : streams) {
      auto pf = factory(st.channel);
      const std::int64_t t0 = now_ns();
      for (const auto& ev : st.events) {
        cands.clear();
        pf->on_demand(ev, cands);
        candidates += cands.size();
        if (!ev.sc_hit && ev.type == AccessType::kRead) {
          pf->on_fill(ev.local_block, false, ev.now);
        }
      }
      ns += now_ns() - t0;
      demands += st.events.size();
    }
    const std::string name = psim::prefetcher_kind_name(kind);
    out.set("prefetch.ns_per_demand." + name, "ns", per(ns, demands));
    out.set("prefetch.candidates_per_demand." + name, "ratio",
            ratio(candidates, demands));
  }

  // DRAM: the miss + writeback stream in arrival order, completions taken
  // as they land, drained at the end.
  std::int64_t dram_ns = 0;
  std::uint64_t requests = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::vector<planaria::dram::DramCompletion> done;
  for (const auto& st : streams) {
    planaria::dram::DramChannel d(cfg.dram);
    const std::int64_t t0 = now_ns();
    for (const auto& req : st.dram) {
      d.advance(req.arrival);
      if (d.has_completions()) d.take_completions(done);
      d.submit(req);
    }
    d.drain();
    d.take_completions(done);
    dram_ns += now_ns() - t0;
    requests += st.dram.size();
    row_hits += d.counters().row_hits;
    row_misses += d.counters().row_misses;
  }
  out.set("dram.ns_per_request", "ns", per(dram_ns, requests));
  out.set("dram.row_hit_rate", "ratio", ratio(row_hits, row_hits + row_misses));
}

void probe_snapshot(const ptrace::TraceBatch& batch, const psim::SimConfig& cfg,
                    const std::string& tmp_dir, MetricSet& out) {
  constexpr int kRepeats = 7;
  const auto kind = psim::PrefetcherKind::kPlanaria;
  const auto make = [&] {
    return std::make_unique<psim::Simulator>(
        cfg, psim::make_prefetcher_factory(kind),
        psim::prefetcher_kind_name(kind));
  };
  auto sim = make();
  sim->run_sharded(batch, 0, batch.size() / 2, nullptr);

  std::vector<std::uint8_t> bytes;
  std::vector<double> encode_ms;
  for (int i = 0; i < kRepeats; ++i) {
    planaria::snapshot::Writer w;
    const std::int64_t t0 = now_ns();
    sim->save_state(w);
    encode_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    bytes = w.buffer();
  }
  std::vector<double> decode_ms;
  for (int i = 0; i < kRepeats; ++i) {
    auto fresh = make();
    planaria::snapshot::Reader r(bytes);
    const std::int64_t t0 = now_ns();
    fresh->load_state(r);
    decode_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    planaria::snapshot::Writer again;
    fresh->save_state(again);
    if (again.buffer() != bytes) {
      throw std::runtime_error("snapshot probe: decode/encode round trip differs");
    }
  }
  const std::string path = tmp_dir + "/probe.snap";
  std::vector<double> write_ms;
  for (int i = 0; i < kRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    planaria::io::write_file_durable(path, bytes);
    write_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  planaria::io::remove_file(path);
  out.set("snapshot.bytes", "B", static_cast<double>(bytes.size()));
  out.set("snapshot.encode_ms", "ms", median(encode_ms));
  out.set("snapshot.decode_ms", "ms", median(decode_ms));
  out.set("io.durable_write_ms", "ms", median(write_ms));
}

std::vector<KindRun> probe_sim_chunked(
    const std::vector<ptrace::TraceBatch>& batches, const psim::SimConfig& cfg,
    std::uint64_t chunk, planaria::common::ThreadPool& pool,
    double& busy_share) {
  const auto& kinds = psim::all_prefetcher_kinds();
  const std::size_t tasks = kinds.size() * batches.size();
  std::vector<psim::SimResult> results(tasks);
  std::vector<std::int64_t> task_ns(tasks, 0);
  const std::int64_t t0 = now_ns();
  pool.parallel_for(tasks, [&](std::size_t i) {
    const auto kind = kinds[i / batches.size()];
    const auto& b = batches[i % batches.size()];
    const std::int64_t s0 = now_ns();
    psim::Simulator sim(cfg, psim::make_prefetcher_factory(kind),
                        psim::prefetcher_kind_name(kind));
    for (std::size_t pos = 0; pos < b.size(); pos += chunk) {
      sim.run_sharded(b, pos, std::min<std::size_t>(b.size(), pos + chunk),
                      nullptr);
    }
    results[i] = sim.finish();
    task_ns[i] = now_ns() - s0;
  });
  const std::int64_t wall = now_ns() - t0;

  std::vector<KindRun> runs(kinds.size());
  std::int64_t busy = 0;
  for (std::size_t i = 0; i < tasks; ++i) {
    KindRun& run = runs[i / batches.size()];
    run.kind = kinds[i / batches.size()];
    run.host_ns += task_ns[i];
    run.records += batches[i % batches.size()].size();
    run.results.push_back(results[i]);
    busy += task_ns[i];
  }
  busy_share = static_cast<double>(busy) /
               (static_cast<double>(pool.size()) * static_cast<double>(wall));
  return runs;
}

void kind_metrics(const std::vector<KindRun>& runs, MetricSet& out) {
  for (const KindRun& run : runs) {
    const std::string name = psim::prefetcher_kind_name(run.kind);
    std::uint64_t reads = 0;
    double weighted_hits = 0.0;
    std::uint64_t issued = 0;
    std::uint64_t useful = 0;
    std::uint64_t dropped = 0;
    std::uint64_t bursts = 0;
    double bus = 0.0;
    for (const auto& r : run.results) {
      reads += r.demand_reads;
      weighted_hits += r.sc_hit_rate * static_cast<double>(r.demand_reads);
      issued += r.prefetch_issued;
      useful += r.hits_on_slp + r.hits_on_tlp + r.hits_on_other_pf;
      dropped += r.prefetch_dropped;
      bursts += r.dram_traffic_blocks;
      bus += r.data_bus_utilization;
    }
    out.set("sim.ns_per_record." + name, "ns", per(run.host_ns, run.records));
    out.set("cache.hit_rate." + name, "ratio",
            reads == 0 ? 0.0 : weighted_hits / static_cast<double>(reads));
    if (run.kind != psim::PrefetcherKind::kNone) {
      out.set("prefetch.issued_per_record." + name, "ratio",
              ratio(issued, run.records));
      out.set("prefetch.accuracy." + name, "ratio", ratio(useful, issued));
      out.set("prefetch.dropped_per_issued." + name, "ratio",
              ratio(dropped, issued));
    }
    out.set("dram.bursts_per_record." + name, "ratio",
            ratio(bursts, run.records));
    out.set("dram.bus_utilization." + name, "ratio",
            run.results.empty()
                ? 0.0
                : bus / static_cast<double>(run.results.size()));
  }
}

}  // namespace perfbench
