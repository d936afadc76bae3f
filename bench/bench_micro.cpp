// Microbenchmarks (google-benchmark): throughput of the hot simulation
// primitives. These are engineering benchmarks, not paper reproductions —
// they guard the simulator's own performance so the figure benches stay
// usable at paper-scale record counts.
#include <benchmark/benchmark.h>

#include "core/planaria.hpp"
#include "dram/channel.hpp"
#include "prefetch/bop.hpp"
#include "prefetch/spp.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"

namespace {

using namespace planaria;

std::vector<trace::TraceRecord> sample_trace(std::uint64_t n) {
  trace::AppProfile app = trace::app_by_name("HoK");
  return trace::generate_app_trace(app, n);
}

prefetch::DemandEvent event_for(const trace::TraceRecord& r) {
  prefetch::DemandEvent e;
  e.local_block = dram::AddressMapper::local_block(r.address);
  e.page = addr::page_number(r.address);
  e.block_in_segment = addr::block_in_segment(r.address);
  e.now = r.arrival;
  e.type = r.type;
  e.device = r.device;
  e.sc_hit = false;
  return e;
}

void BM_PlanariaOnDemand(benchmark::State& state) {
  const auto trace = sample_trace(100000);
  core::PlanariaPrefetcher pf;
  std::vector<prefetch::PrefetchRequest> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    pf.on_demand(event_for(trace[i]), out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanariaOnDemand);

void BM_BopOnDemand(benchmark::State& state) {
  const auto trace = sample_trace(100000);
  prefetch::BestOffsetPrefetcher pf;
  std::vector<prefetch::PrefetchRequest> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    auto e = event_for(trace[i]);
    pf.on_fill(e.local_block, false, e.now);
    pf.on_demand(e, out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BopOnDemand);

void BM_SppOnDemand(benchmark::State& state) {
  const auto trace = sample_trace(100000);
  prefetch::SignaturePathPrefetcher pf;
  std::vector<prefetch::PrefetchRequest> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    pf.on_demand(event_for(trace[i]), out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SppOnDemand);

void BM_DramChannelReads(benchmark::State& state) {
  dram::DramConfig config;
  std::vector<dram::DramCompletion> done;
  for (auto _ : state) {
    state.PauseTiming();
    dram::DramChannel channel(config);
    state.ResumeTiming();
    Cycle t = 0;
    for (int i = 0; i < 1000; ++i) {
      t += 40;
      channel.advance(t);
      dram::DramRequest req;
      req.local_block = static_cast<std::uint64_t>(i) * 7919;
      req.arrival = t;
      req.tag = static_cast<std::uint64_t>(i);
      channel.submit(req);
    }
    channel.drain();
    channel.take_completions(done);
    benchmark::DoNotOptimize(done.size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DramChannelReads);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto trace = sample_trace(50000);
    benchmark::DoNotOptimize(trace.data());
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_TraceGeneration);

}  // namespace

BENCHMARK_MAIN();
