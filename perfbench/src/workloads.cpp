#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "common/thread_pool.hpp"
#include "probes.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"

namespace perfbench {

namespace psim = planaria::sim;
namespace pserve = planaria::serve;
namespace ptrace = planaria::trace;
using planaria::common::ThreadPool;
using psim::PrefetcherKind;

namespace {

// Records per sweep cell. Below ~50k BOP's offset learning never settles and
// it issues no prefetch at all, which would leave its cells hollow.
constexpr std::uint64_t kSweepRecords = 50000;
constexpr std::size_t kPoolLanes = 4;
constexpr std::size_t kServeLanes = 2;
constexpr int kMinPasses = 3;
constexpr double kPaperAmatReductionPct = 24.3;

/// Shape of one serving fleet: the apps x kinds x devices tenant grid and
/// the loop knobs. Ingest runs at twice the quantum into a four-quantum
/// queue, so queues fill and ingest defers; max_live below the fleet size
/// makes admission defer.
struct ServeShape {
  std::uint64_t records_per_session;
  std::size_t max_live;
  std::uint64_t quantum;
  std::uint64_t checkpoint_every;
  std::vector<PrefetcherKind> kinds;
  std::vector<std::string> devices;
};

// serve-fleet: 80 tenants, 16 live (5 admission waves), 32 quanta of 1000
// records per session, so one pass is ~160 ticks and a run well over 1000.
// About 4% of ticks admit or checkpoint, so p99 lands on those ticks (tens
// of ms of trace generation and snapshot writes) rather than on the
// preemption noise of sub-ms steady ticks on a shared host.
const ServeShape& fleet_shape() {
  static const ServeShape shape{
      32000, 16, 1000, 80,
      {PrefetcherKind::kNone, PrefetcherKind::kBop, PrefetcherKind::kSpp,
       PrefetcherKind::kPlanaria},
      {"phone", "tablet"}};
  return shape;
}

// The small fleet the sweep workloads' traced runs serve to report the
// serve-layer metrics on their own seed.
const ServeShape& probe_shape() {
  static const ServeShape shape{
      8000, 4, 128, 32,
      {PrefetcherKind::kNone, PrefetcherKind::kPlanaria},
      {"phone"}};
  return shape;
}

ptrace::AppProfile seeded_profile(const std::string& app, std::uint64_t seed) {
  ptrace::AppProfile p = ptrace::app_by_name(app);
  p.seed ^= mix64(seed);
  return p;
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Books one check: every check is an attempted operation, a false one a
/// failed operation and a failed run.
void expect(RunResult& r, bool ok, const std::string& what) {
  ++r.attempted;
  if (ok) return;
  ++r.failed;
  r.correct = false;
  r.failures.push_back(what);
}

/// Runs `pass(i)` until at least `seconds` have elapsed and `min_passes`
/// passes are done.
template <typename F>
int timed_loop(double seconds, int min_passes, F&& pass) {
  const std::int64_t t0 = now_ns();
  int n = 0;
  while (n < min_passes || seconds_since(t0) < seconds) pass(n++);
  return n;
}

void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

// ---------------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------------

struct SweepPass {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t records = 0;
  std::vector<double> cell_ms;
  std::vector<psim::SimResult> results;  ///< app-major, kinds in sweep order
  std::vector<std::string> errors;       ///< one line per throwing cell
  std::vector<ptrace::TraceBatch> batches;
  std::string digest;
};

/// One user-visible sweep: generate the seeded traces, then run every
/// (app x kind) cell through sim::run_checkpointed with checkpointing off,
/// serially when `pool` is null, else fanned over it with each cell also
/// sharding its channels on it.
SweepPass sweep_pass(std::uint64_t seed, ThreadPool* pool, SpanRecorder* rec) {
  const auto apps = ptrace::app_names();
  const auto& kinds = psim::all_prefetcher_kinds();
  const psim::SimConfig cfg;
  std::vector<psim::PrefetcherFactory> factories;
  for (const auto k : kinds) factories.push_back(psim::make_prefetcher_factory(k));

  SweepPass p;
  ScopedSpan pass_span(rec, "pass");
  const std::int64_t t0 = now_ns();
  p.batches.resize(apps.size());
  {
    ScopedSpan setup(rec, "setup", pass_span.id());
    const auto generate = [&](std::size_t a) {
      std::vector<ptrace::TraceRecord> records;
      {
        ScopedSpan gen(rec, "trace.generate", setup.id());
        records = ptrace::generate_app_trace(seeded_profile(apps[a], seed),
                                             kSweepRecords);
        gen.set_count(records.size());
      }
      p.batches[a] = ptrace::TraceBatch(records);
    };
    if (pool != nullptr) {
      pool->parallel_for(apps.size(), generate);
    } else {
      for (std::size_t a = 0; a < apps.size(); ++a) generate(a);
    }
  }
  p.setup_s = seconds_since(t0);

  const std::size_t cells = apps.size() * kinds.size();
  p.results.resize(cells);
  p.cell_ms.resize(cells);
  std::vector<std::string> errors(cells);
  const std::int64_t t1 = now_ns();
  const auto cell = [&](std::size_t i) {
    const std::size_t a = i / kinds.size();
    const std::size_t k = i % kinds.size();
    const char* name = psim::prefetcher_kind_name(kinds[k]);
    ScopedSpan span(rec, std::string("sim.") + name, pass_span.id());
    const std::int64_t c0 = now_ns();
    try {
      p.results[i] = psim::run_checkpointed(cfg, factories[k], name,
                                            p.batches[a],
                                            psim::CheckpointConfig{}, pool,
                                            nullptr);
    } catch (const std::exception& e) {
      errors[i] = apps[a] + "/" + name + " threw: " + e.what();
    }
    p.cell_ms[i] = static_cast<double>(now_ns() - c0) / 1e6;
    span.set_count(p.batches[a].size());
  };
  if (pool != nullptr) {
    pool->parallel_for(cells, cell);
  } else {
    for (std::size_t i = 0; i < cells; ++i) cell(i);
  }
  p.run_s = seconds_since(t1);
  for (const auto& b : p.batches) p.records += b.size() * kinds.size();
  for (auto& e : errors) {
    if (!e.empty()) p.errors.push_back(std::move(e));
  }
  p.digest = results_digest(p.results);
  return p;
}

double sweep_amat_reduction_pct(const SweepPass& p) {
  const auto& kinds = psim::all_prefetcher_kinds();
  const auto at = [&](PrefetcherKind k) {
    return static_cast<std::size_t>(
        std::find(kinds.begin(), kinds.end(), k) - kinds.begin());
  };
  const std::size_t none = at(PrefetcherKind::kNone);
  const std::size_t planaria = at(PrefetcherKind::kPlanaria);
  std::vector<double> reductions;
  for (std::size_t a = 0; a < p.batches.size(); ++a) {
    const auto& base = p.results[a * kinds.size() + none];
    reductions.push_back(100.0 * p.results[a * kinds.size() + planaria]
                                     .amat_reduction_vs(base));
  }
  return psim::mean(reductions);
}

/// resume_s on the sweeps: the grid's Planaria row is checkpointed halfway
/// through every app's trace, and one resume rebuilds all ten cells from
/// their snapshot files. The resumed cells are then completed and must equal
/// the uninterrupted results.
std::vector<double> sweep_resume(const SweepPass& p, const std::string& dir,
                                 RunResult& r) {
  constexpr int kRepeats = 5;
  const auto kind = PrefetcherKind::kPlanaria;
  const auto& kinds = psim::all_prefetcher_kinds();
  const std::size_t k =
      static_cast<std::size_t>(std::find(kinds.begin(), kinds.end(), kind) -
                               kinds.begin());
  const psim::SimConfig cfg;
  const auto factory = psim::make_prefetcher_factory(kind);
  const char* name = psim::prefetcher_kind_name(kind);
  fresh_dir(dir);
  std::vector<psim::CheckpointConfig> ckpts(p.batches.size());
  std::vector<std::uint64_t> fps(p.batches.size());
  for (std::size_t a = 0; a < p.batches.size(); ++a) {
    const auto& b = p.batches[a];
    psim::Simulator sim(cfg, factory, name);
    sim.run_sharded(b, 0, b.size() / 2, nullptr);
    ckpts[a].dir = dir;
    ckpts[a].every = 1;
    ckpts[a].label = "cell_" + std::to_string(a);
    fps[a] = psim::trace_fingerprint(b);
    psim::write_checkpoint(sim, ckpts[a], b.size() / 2, fps[a]);
  }
  std::vector<double> seconds;
  std::vector<std::unique_ptr<psim::Simulator>> sims(p.batches.size());
  std::vector<std::uint64_t> cursors(p.batches.size());
  for (int rep = 0; rep < kRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    for (std::size_t a = 0; a < p.batches.size(); ++a) {
      sims[a] = std::make_unique<psim::Simulator>(cfg, factory, name);
      cursors[a] = psim::load_checkpoint(*sims[a], ckpts[a].current_path(),
                                         fps[a]);
    }
    seconds.push_back(seconds_since(t0));
  }
  bool same = true;
  for (std::size_t a = 0; a < p.batches.size(); ++a) {
    sims[a]->run_sharded(p.batches[a], cursors[a], p.batches[a].size(),
                         nullptr);
    same = same && sims[a]->finish() == p.results[a * kinds.size() + k];
  }
  expect(r, same, "resumed Planaria cells differ from the uninterrupted cells");
  std::filesystem::remove_all(dir);
  return seconds;
}

void check_sweep_exercise(const SweepPass& p, RunResult& r) {
  const auto& kinds = psim::all_prefetcher_kinds();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    if (kinds[k] == PrefetcherKind::kNone) continue;
    std::uint64_t issued = 0;
    for (std::size_t a = 0; a < p.batches.size(); ++a) {
      issued += p.results[a * kinds.size() + k].prefetch_issued;
    }
    expect(r, issued > 0,
           std::string(psim::prefetcher_kind_name(kinds[k])) +
               " issued no prefetch on the whole grid");
  }
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

std::vector<pserve::SessionSpec> fleet_specs(const ServeShape& shape,
                                             std::uint64_t seed) {
  const auto apps = ptrace::app_names();
  std::vector<pserve::SessionSpec> specs;
  for (std::size_t d = 0; d < shape.devices.size(); ++d) {
    for (const auto kind : shape.kinds) {
      for (std::size_t a = 0; a < apps.size(); ++a) {
        pserve::SessionSpec s;
        s.app = apps[a];
        s.kind = kind;
        // One trace per (app, device): tenants that differ only in kind
        // stream the same traffic, so their results compare like for like.
        s.user_seed = mix64(seed ^ mix64(a * 16 + d + 1));
        s.device = shape.devices[d];
        specs.push_back(s);
      }
    }
  }
  return specs;
}

pserve::ServeConfig serve_config(const ServeShape& shape,
                                 const std::string& dir) {
  pserve::ServeConfig c;
  c.records_per_session = shape.records_per_session;
  c.max_live_sessions = shape.max_live;
  c.quantum_records = shape.quantum;
  c.ingest_per_tick = 2 * shape.quantum;
  c.queue_capacity = 4 * shape.quantum;
  c.checkpoint_dir = dir;
  c.checkpoint_every_ticks = shape.checkpoint_every;
  return c;
}

struct ServePass {
  double setup_s = 0.0;
  double resume_s = 0.0;
  bool resumed = false;
  std::uint64_t fed = 0;       ///< records fed in measured ticks
  double tick_s = 0.0;         ///< wall time of measured ticks
  std::vector<double> tick_ms;
  std::vector<TickClass> classes;
  pserve::ServeCounters counters;
  std::vector<pserve::SessionOutcome> outcomes;
  std::string digest;
};

/// One fleet served to completion. Set-up runs through the first tick (the
/// first admission wave); with `kill`, the server is destroyed right after
/// its first mid-run checkpoint and rebuilt on the same directory, and the
/// rebuild through its first tick is the resume. Neither the first tick nor
/// the resume tick counts as a measured tick.
ServePass serve_pass(const ServeShape& shape, std::uint64_t seed,
                     const std::string& dir, bool kill, SpanRecorder* rec) {
  fresh_dir(dir);
  const auto cfg = serve_config(shape, dir);
  const auto specs = fleet_specs(shape, seed);
  ServePass p;
  ScopedSpan pass_span(rec, "serve.pass");
  std::int64_t t0 = now_ns();
  auto server = std::make_unique<pserve::SessionServer>(cfg, kServeLanes);
  server->add_fleet(specs);
  bool more = server->tick();
  p.setup_s = seconds_since(t0);
  while (more) {
    const pserve::ServeCounters before = server->counters();
    const std::int64_t s0 = now_ns();
    {
      ScopedSpan tick(rec, "serve.tick", pass_span.id());
      more = server->tick();
    }
    const std::int64_t dt = now_ns() - s0;
    const pserve::ServeCounters& after = server->counters();
    p.tick_ms.push_back(static_cast<double>(dt) / 1e6);
    p.classes.push_back(classify_tick(before, after));
    p.fed += after.fed_records - before.fed_records;
    p.tick_s += static_cast<double>(dt) / 1e9;
    if (kill && !p.resumed && more && after.ckpt_written > before.ckpt_written) {
      server.reset();
      t0 = now_ns();
      ScopedSpan resume(rec, "serve.resume", pass_span.id());
      server = std::make_unique<pserve::SessionServer>(cfg, kServeLanes);
      server->add_fleet(specs);
      more = server->tick();
      p.resume_s = seconds_since(t0);
      p.resumed = server->recovery().resumed;
    }
  }
  p.counters = server->counters();
  p.outcomes = server->outcomes();
  p.digest = serve_digest(*server);
  server.reset();
  std::filesystem::remove_all(dir);
  return p;
}

double serve_amat_reduction_pct(const ServePass& p) {
  std::map<std::pair<std::string, std::string>, const psim::SimResult*> none;
  std::map<std::pair<std::string, std::string>, const psim::SimResult*> plan;
  for (const auto& o : p.outcomes) {
    const auto key = std::make_pair(o.spec.app, o.spec.device);
    if (o.spec.kind == PrefetcherKind::kNone) none[key] = &o.result;
    if (o.spec.kind == PrefetcherKind::kPlanaria) plan[key] = &o.result;
  }
  std::vector<double> reductions;
  for (const auto& [key, base] : none) {
    const auto it = plan.find(key);
    if (it != plan.end()) {
      reductions.push_back(100.0 * it->second->amat_reduction_vs(*base));
    }
  }
  return psim::mean(reductions);
}

void check_serve_pass(const ServePass& p, RunResult& r) {
  const auto& c = p.counters;
  expect(r, c.submitted == c.admitted + c.sessions_rejected,
         "serve: submitted != admitted + rejected");
  expect(r, c.ckpt_attempted == c.ckpt_written + c.ckpt_degraded,
         "serve: ckpt_attempted != ckpt_written + ckpt_degraded");
  expect(r, c.admission_defers > 0, "serve: no admission defer");
  expect(r, c.ckpt_written > 1, "serve: no mid-run checkpoint written");
  // Sessions and checkpoint attempts are the serving loop's operations.
  for (const auto& o : p.outcomes) {
    ++r.attempted;
    if (o.state != pserve::SessionState::kCompleted) {
      ++r.failed;
      r.correct = false;
      r.failures.push_back("serve: session " + std::to_string(o.id) +
                           " ended " + pserve::session_state_name(o.state));
    }
  }
  r.attempted += c.ckpt_attempted;
  r.failed += c.ckpt_degraded;
  if (c.ckpt_degraded > 0) {
    r.correct = false;
    r.failures.push_back("serve: degraded checkpoint attempts");
  }
}

std::vector<ptrace::TraceBatch> serve_probe_batches(const ServeShape& shape,
                                                    std::uint64_t seed,
                                                    MetricSet& out) {
  // The tenant traces of the first device, generated as admission would
  // (user_seed mixed into the profile seed).
  std::vector<ptrace::TraceBatch> batches;
  std::int64_t ns = 0;
  std::uint64_t records = 0;
  for (const auto& spec : fleet_specs(shape, seed)) {
    if (spec.kind != shape.kinds.front() || spec.device != shape.devices.front()) {
      continue;
    }
    ptrace::AppProfile profile = ptrace::app_by_name(spec.app);
    profile.seed ^= mix64(spec.user_seed);
    const std::int64_t t0 = now_ns();
    const auto recs =
        ptrace::generate_app_trace(profile, shape.records_per_session);
    ns += now_ns() - t0;
    records += recs.size();
    batches.emplace_back(recs);
  }
  out.set("trace.ns_per_record", "ns",
          static_cast<double>(ns) / static_cast<double>(records));
  return batches;
}

/// serve.* metrics from traced serve passes.
void serve_layer_metrics(const std::vector<ServePass>& passes, MetricSet& out) {
  std::vector<double> steady, admit, ckpt;
  std::uint64_t admission_defers = 0, ingest_defers = 0, degraded = 0, shed = 0;
  for (const auto& p : passes) {
    for (std::size_t i = 0; i < p.tick_ms.size(); ++i) {
      switch (p.classes[i]) {
        case TickClass::kSteady: steady.push_back(p.tick_ms[i]); break;
        case TickClass::kAdmit: admit.push_back(p.tick_ms[i]); break;
        case TickClass::kCheckpoint: ckpt.push_back(p.tick_ms[i]); break;
      }
    }
    admission_defers += p.counters.admission_defers;
    ingest_defers += p.counters.ingest_defers;
    degraded += p.counters.ckpt_degraded;
    shed += p.counters.sessions_shed_retry + p.counters.sessions_shed_deadline;
  }
  const double n = static_cast<double>(passes.size());
  out.set("serve.steady_tick_ms", "ms", median(steady));
  out.set("serve.admit_tick_ms", "ms", median(admit));
  out.set("serve.ckpt_tick_ms", "ms", median(ckpt));
  out.set("serve.admission_defers", "count", static_cast<double>(admission_defers) / n);
  out.set("serve.ingest_defers", "count", static_cast<double>(ingest_defers) / n);
  out.set("serve.ckpt_degraded", "count", static_cast<double>(degraded) / n);
  out.set("serve.sessions_shed", "count", static_cast<double>(shed) / n);
}

void check_digests(RunResult& r, const std::vector<std::string>& digests,
                   const std::string& warm_digest, const RunOptions& opt) {
  bool stable = true;
  for (const auto& d : digests) stable = stable && d == digests.front();
  expect(r, stable, "digest differs between passes of one run");
  expect(r, warm_digest != digests.front(),
         "seeds " + std::to_string(opt.seed) + " and " +
             std::to_string(opt.seed + 1) + " give the same digest");
  if (!opt.expect_digest.empty()) {
    expect(r, digests.front() == opt.expect_digest,
           "digest " + digests.front() + " != recorded " + opt.expect_digest);
  }
  r.digest = digests.front();
}

RunResult run_sweep(const RunOptions& opt, bool pooled) {
  RunResult r;
  std::unique_ptr<ThreadPool> pool;
  if (pooled) pool = std::make_unique<ThreadPool>(kPoolLanes);
  const std::size_t lanes = pooled ? kPoolLanes : 1;

  // Discarded warm-up on the next seed: settles the pool and the CPU
  // clocks, and its digest must differ from the timed seed's.
  const SweepPass warm = sweep_pass(opt.seed + 1, pool.get(), nullptr);

  std::vector<SweepPass> plain;   // untraced passes
  std::vector<SweepPass> traced;  // traced run only
  SpanRecorder rec;
  const int passes = timed_loop(opt.seconds, opt.trace ? 2 * kMinPasses - 2 : kMinPasses,
                                [&](int i) {
    const bool traced_pass = opt.trace && i % 2 == 1;
    SweepPass p = sweep_pass(opt.seed, pool.get(), traced_pass ? &rec : nullptr);
    if (!traced.empty() || !plain.empty()) p.batches.clear();
    (traced_pass ? traced : plain).push_back(std::move(p));
  });
  const SweepPass& first = plain.front();

  std::vector<std::string> digests;
  std::vector<double> rps, setup, cell_ms, wall;
  for (const auto* set : {&plain, &traced}) {
    for (const auto& p : *set) {
      r.attempted += p.results.size();
      r.failed += p.errors.size();
      for (const auto& e : p.errors) r.failures.push_back(e);
      if (!p.errors.empty()) r.correct = false;
      digests.push_back(p.digest);
    }
  }
  check_digests(r, digests, warm.digest, opt);
  if (pooled && opt.expect_digest.empty()) {
    // No recorded digest for this seed: the pooled grid must still equal
    // the serial grid.
    const SweepPass serial = sweep_pass(opt.seed, nullptr, nullptr);
    expect(r, serial.digest == first.digest,
           "sweep-pooled digest != sweep-serial digest");
  }
  check_sweep_exercise(first, r);

  for (const auto& p : plain) {
    rps.push_back(static_cast<double>(p.records) / p.run_s);
    setup.push_back(p.setup_s);
    wall.push_back(p.setup_s + p.run_s);
    cell_ms.insert(cell_ms.end(), p.cell_ms.begin(), p.cell_ms.end());
  }
  const Percentile p50 = percentile(cell_ms, 50);
  const Percentile p90 = percentile(cell_ms, 90);
  r.report.set("passes", "count", static_cast<double>(passes));
  r.report.set("cells_timed", "count", static_cast<double>(cell_ms.size()));
  r.report.set("cells_beyond_p90", "count", static_cast<double>(p90.beyond));
  r.report.set("highest_supported_percentile", "%",
               highest_supported_percentile(cell_ms.size(), {99.9, 99, 95, 90, 75, 50}));
  expect(r, p90.supported, opt.workload + ": fewer than 10 cells beyond p90");

  if (!opt.trace) {
    const auto resume = sweep_resume(first, opt.tmp_dir + "/resume", r);
    r.metrics.set("records_per_s", "1/s", median(rps));
    r.metrics.set("setup_s", "s", median(setup));
    r.metrics.set("peak_rss_mb", "MB", peak_rss_mb());
    r.metrics.set("op_p50_ms", "ms", p50.value);
    r.metrics.set("op_tail_ms", "ms", p90.value);
    r.metrics.set("resume_s", "s", median(resume));
    r.metrics.set("amat_reduction_pct", "%", sweep_amat_reduction_pct(first));
    r.report.set("paper_amat_reduction_pct", "%", kPaperAmatReductionPct);
  } else {
    // Per-layer metrics from the traced passes and the layer probes.
    r.spans = rec.totals();
    const auto& totals = r.spans;
    const auto& gen = totals.at("trace.generate");
    r.metrics.set("trace.ns_per_record", "ns",
                  static_cast<double>(gen.total_ns) / static_cast<double>(gen.count));
    probe_fingerprint(first.batches, r.metrics);
    std::vector<KindRun> runs;
    std::int64_t busy_ns = 0;
    double traced_run_s = 0.0;
    for (const auto k : psim::all_prefetcher_kinds()) {
      const auto& t = totals.at(std::string("sim.") + psim::prefetcher_kind_name(k));
      KindRun run;
      run.kind = k;
      run.host_ns = t.total_ns;
      run.records = t.count;
      runs.push_back(run);
      busy_ns += t.total_ns;
    }
    const auto& kinds = psim::all_prefetcher_kinds();
    for (std::size_t i = 0; i < first.results.size(); ++i) {
      runs[i % kinds.size()].results.push_back(first.results[i]);
    }
    for (const auto& p : traced) traced_run_s += p.run_s;
    kind_metrics(runs, r.metrics);
    probe_replays(first.batches, psim::SimConfig{}, r.metrics);
    r.metrics.set("pool.busy_share", "ratio",
                  static_cast<double>(busy_ns) / 1e9 /
                      (static_cast<double>(lanes) * traced_run_s));
    probe_snapshot(first.batches.front(), psim::SimConfig{}, opt.tmp_dir,
                   r.metrics);
    std::vector<ServePass> serve;
    serve.push_back(serve_pass(probe_shape(), opt.seed, opt.tmp_dir + "/serve",
                               true, nullptr));
    check_serve_pass(serve.front(), r);
    serve_layer_metrics(serve, r.metrics);
    std::vector<double> traced_wall;
    for (const auto& p : traced) traced_wall.push_back(p.setup_s + p.run_s);
    r.metrics.set("bench.tracing_overhead_pct", "%",
                  100.0 * (median(traced_wall) / median(wall) - 1.0));
  }
  return r;
}

RunResult run_serve(const RunOptions& opt) {
  RunResult r;
  const ServeShape& shape = fleet_shape();
  const std::string dir = opt.tmp_dir + "/serve";
  const ServePass warm = serve_pass(shape, opt.seed + 1, dir, true, nullptr);

  std::vector<ServePass> plain;
  std::vector<ServePass> traced;
  SpanRecorder rec;
  // Enough passes for >1000 measured ticks, so p99 has >= 10 beyond it
  // however slow the host.
  const std::size_t per_pass = std::max<std::size_t>(1, warm.tick_ms.size());
  const int min_passes = std::max(
      kMinPasses, static_cast<int>((1000 + per_pass - 1) / per_pass) + 1);
  const int passes = timed_loop(opt.seconds, min_passes, [&](int i) {
    const bool traced_pass = opt.trace && i % 2 == 1;
    ServePass p = serve_pass(shape, opt.seed, dir, true, traced_pass ? &rec : nullptr);
    (traced_pass ? traced : plain).push_back(std::move(p));
  });

  std::vector<std::string> digests;
  for (const auto* set : {&plain, &traced}) {
    for (const auto& p : *set) {
      check_serve_pass(p, r);
      expect(r, p.resumed, "serve: the killed server did not resume");
      digests.push_back(p.digest);
    }
  }
  check_digests(r, digests, warm.digest, opt);
  if (opt.expect_digest.empty()) {
    // No recorded digest for this seed: a killed-and-resumed fleet must
    // still equal the uninterrupted one.
    const ServePass whole = serve_pass(shape, opt.seed, dir, false, nullptr);
    expect(r, whole.digest == digests.front(),
           "serve: resumed fleet differs from the uninterrupted fleet");
  }

  std::vector<double> rps, setup, resume, ticks, wall;
  for (const auto& p : plain) {
    rps.push_back(static_cast<double>(p.fed) / p.tick_s);
    setup.push_back(p.setup_s);
    resume.push_back(p.resume_s);
    wall.push_back(p.setup_s + p.tick_s + p.resume_s);
    ticks.insert(ticks.end(), p.tick_ms.begin(), p.tick_ms.end());
  }
  // The traced run reports no tick metrics; its exercise check counts the
  // ticks of traced passes too.
  for (const auto& p : traced) ticks.insert(ticks.end(), p.tick_ms.begin(), p.tick_ms.end());
  const Percentile p50 = percentile(ticks, 50);
  const Percentile p99 = percentile(ticks, 99);
  r.report.set("passes", "count", static_cast<double>(passes));
  r.report.set("ticks_timed", "count", static_cast<double>(ticks.size()));
  r.report.set("ticks_beyond_p99", "count", static_cast<double>(p99.beyond));
  r.report.set("highest_supported_percentile", "%",
               highest_supported_percentile(ticks.size(), {99.9, 99, 95, 90, 75, 50}));
  expect(r, p99.supported, "serve: fewer than 10 ticks beyond p99");

  if (!opt.trace) {
    r.metrics.set("records_per_s", "1/s", median(rps));
    r.metrics.set("setup_s", "s", median(setup));
    r.metrics.set("peak_rss_mb", "MB", peak_rss_mb());
    r.metrics.set("op_p50_ms", "ms", p50.value);
    r.metrics.set("op_tail_ms", "ms", p99.value);
    r.metrics.set("resume_s", "s", median(resume));
    r.metrics.set("amat_reduction_pct", "%", serve_amat_reduction_pct(plain.front()));
    r.report.set("paper_amat_reduction_pct", "%", kPaperAmatReductionPct);
  } else {
    const auto batches = serve_probe_batches(shape, opt.seed, r.metrics);
    probe_fingerprint(batches, r.metrics);
    ThreadPool pool(kServeLanes);
    double busy = 0.0;
    const auto runs =
        probe_sim_chunked(batches, psim::SimConfig{}, shape.quantum, pool, busy);
    kind_metrics(runs, r.metrics);
    probe_replays(batches, psim::SimConfig{}, r.metrics);
    r.metrics.set("pool.busy_share", "ratio", busy);
    probe_snapshot(batches.front(), psim::SimConfig{}, opt.tmp_dir, r.metrics);
    serve_layer_metrics(traced, r.metrics);
    r.spans = rec.totals();
    std::vector<double> traced_wall;
    for (const auto& p : traced) traced_wall.push_back(p.setup_s + p.tick_s + p.resume_s);
    r.metrics.set("bench.tracing_overhead_pct", "%",
                  100.0 * (median(traced_wall) / median(wall) - 1.0));
  }
  return r;
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t z = x + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

TickClass classify_tick(const pserve::ServeCounters& before,
                        const pserve::ServeCounters& after) {
  if (after.ckpt_attempted > before.ckpt_attempted) return TickClass::kCheckpoint;
  if (after.admitted > before.admitted) return TickClass::kAdmit;
  return TickClass::kSteady;
}

std::string results_digest(const std::vector<psim::SimResult>& rs) {
  Digest d;
  for (const auto& r : rs) {
    planaria::snapshot::Writer w;
    r.save_state(w);
    d.bytes(w.buffer());
  }
  return d.hex();
}

std::string serve_digest(const pserve::SessionServer& server) {
  static_assert(std::has_unique_object_representations_v<pserve::ServeCounters>,
                "ServeCounters is hashed as raw bytes");
  Digest d;
  for (const auto& o : server.outcomes()) {
    d.u64(o.id);
    d.str(o.spec.app);
    d.str(psim::prefetcher_kind_name(o.spec.kind));
    d.u64(o.spec.user_seed);
    d.str(o.spec.device);
    d.u64(static_cast<std::uint64_t>(o.state));
    d.u64(o.admit_tick);
    d.u64(o.end_tick);
    d.u64(static_cast<std::uint64_t>(o.attempts));
    d.u64(o.records_fed);
    planaria::snapshot::Writer w;
    o.result.save_state(w);
    d.bytes(w.buffer());
  }
  const pserve::ServeCounters& c = server.counters();
  d.bytes(&c, sizeof c);
  const pserve::FleetSummary& s = server.summary();
  for (const auto* g : {&s.amat_by_app, &s.amat_by_device, &s.ipc_by_app,
                        &s.hit_rate_by_device}) {
    for (const auto& [key, summary] : g->groups) {
      d.str(key);
      d.u64(summary.count());
      for (const double v : {summary.quantile(0.5), summary.quantile(0.99),
                             summary.mean(), summary.min(), summary.max()}) {
        d.bytes(&v, sizeof v);
      }
    }
  }
  return d.hex();
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sweep-serial", "sweep-pooled",
                                                 "serve-fleet"};
  return names;
}

RunResult run_workload(const RunOptions& opt) {
  if (opt.workload == "sweep-serial") return run_sweep(opt, false);
  if (opt.workload == "sweep-pooled") return run_sweep(opt, true);
  if (opt.workload == "serve-fleet") return run_serve(opt);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

std::string pass_digest(const std::string& workload, std::uint64_t seed,
                        const std::string& tmp_dir) {
  if (workload == "sweep") return sweep_pass(seed, nullptr, nullptr).digest;
  if (workload == "serve-fleet") {
    return serve_pass(fleet_shape(), seed, tmp_dir + "/serve", true, nullptr).digest;
  }
  throw std::invalid_argument("unknown digest family: " + workload);
}

}  // namespace perfbench
