// Tests for the benchmark's own logic: percentile selection, span self
// time, tick classification, digest stability and metric names.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <string>
#include <vector>

#include "report.hpp"
#include "serve/serve.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const Percentile p99 = percentile(v, 99);
  CHECK(p99.value == 990.0);
  CHECK(p99.beyond == 10);
  CHECK(p99.supported);
  CHECK(percentile(v, 50).value == 500.0);

  v.pop_back();  // 999 samples: p99 would rest on only 9 slower samples
  const Percentile short99 = percentile(v, 99);
  CHECK(short99.beyond == 9);
  CHECK(!short99.supported);

  CHECK(highest_supported_percentile(1000, {50, 99, 99.9, 95}) == 99);
  CHECK(highest_supported_percentile(999, {50, 99, 99.9, 95}) == 95);
  CHECK(highest_supported_percentile(110, {99, 95, 90}) == 90);
  CHECK(highest_supported_percentile(10, {99, 90, 50}) == 0);
  CHECK(highest_supported_percentile(20, {99, 90, 50}) == 50);
  CHECK(median({3, 1, 2}) == 2.0);
  CHECK(median({4, 1, 2, 3}) == 2.5);
}

void test_span_self_time() {
  SpanRecorder rec;
  const std::size_t root = rec.add({"pass", 0, 0, 100, 0});
  const std::size_t a = rec.add({"a", root, 10, 30, 0});
  rec.add({"b", root, 20, 50, 0});  // overlaps a: a pool lane ran it
  rec.add({"c", root, 60, 70, 0});
  rec.add({"a.child", a, 12, 15, 0});  // grandchild: not the root's child
  rec.add({"late", root, 95, 120, 0});  // clipped to the root's interval
  CHECK(rec.self_ns(root) == 100 - 40 - 10 - 5);
  CHECK(rec.self_ns(a) == 20 - 3);

  const auto totals = rec.totals();
  CHECK(totals.at("a").total_ns == 20);
  CHECK(totals.at("a").self_ns == 17);

  SpanRecorder live;
  {
    ScopedSpan outer(&live, "outer");
    ScopedSpan inner(&live, "inner", outer.id());
    inner.set_count(7);
  }
  CHECK(live.spans().size() == 2);
  CHECK(live.totals().at("inner").count == 7);
  CHECK(live.self_ns(1) >= 0);
  ScopedSpan off(nullptr, "untraced");  // a null recorder records nothing
  CHECK(off.id() == 0);
}

void test_tick_classification() {
  planaria::serve::ServeCounters before;
  planaria::serve::ServeCounters after = before;
  after.fed_records += 512;
  CHECK(classify_tick(before, after) == TickClass::kSteady);
  after.admitted += 2;
  CHECK(classify_tick(before, after) == TickClass::kAdmit);
  after.ckpt_attempted += 1;
  after.ckpt_written += 1;
  CHECK(classify_tick(before, after) == TickClass::kCheckpoint);
  planaria::serve::ServeCounters degraded = before;
  degraded.ckpt_attempted += 1;
  degraded.ckpt_degraded += 1;
  CHECK(classify_tick(before, degraded) == TickClass::kCheckpoint);
}

std::vector<planaria::sim::SimResult> small_grid(std::uint64_t seed) {
  namespace psim = planaria::sim;
  std::vector<psim::SimResult> out;
  for (const auto* app : {"HoK", "Fort"}) {
    auto profile = planaria::trace::app_by_name(app);
    profile.seed ^= mix64(seed);
    const auto records = planaria::trace::generate_app_trace(profile, 6000);
    for (const auto kind : {psim::PrefetcherKind::kNone,
                            psim::PrefetcherKind::kPlanaria}) {
      out.push_back(psim::Simulator::run(
          psim::SimConfig{}, psim::make_prefetcher_factory(kind),
          psim::prefetcher_kind_name(kind), records));
    }
  }
  return out;
}

std::string small_fleet_digest(std::uint64_t seed) {
  planaria::serve::ServeConfig cfg;
  cfg.records_per_session = 4000;
  cfg.max_live_sessions = 2;
  planaria::serve::SessionServer server(cfg, 2);
  for (std::uint64_t i = 0; i < 3; ++i) {
    planaria::serve::SessionSpec spec;
    spec.app = i == 1 ? "Fort" : "HoK";
    spec.user_seed = mix64(seed + i);
    server.add_session(spec);
  }
  server.serve();
  return serve_digest(server);
}

void test_digests() {
  const std::string a = results_digest(small_grid(7));
  CHECK(a == results_digest(small_grid(7)));
  CHECK(a != results_digest(small_grid(8)));
  CHECK(a.size() == 16);

  const std::string s = small_fleet_digest(7);
  CHECK(s == small_fleet_digest(7));
  CHECK(s != small_fleet_digest(8));

  Digest d1, d2;
  d1.str("ab");
  d1.str("c");
  d2.str("a");
  d2.str("bc");
  CHECK(d1.value() != d2.value());  // length framing keeps fields apart
}

void test_metric_names() {
  CHECK(valid_metric_name("records_per_s"));
  CHECK(valid_metric_name("sim.ns_per_record.planaria-slp"));
  CHECK(valid_metric_name("9lives"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name(".hidden"));
  CHECK(!valid_metric_name("-dash"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("slash/name"));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_metric_name(std::string(64, 'a')));
  for (const auto kind : planaria::sim::all_prefetcher_kinds()) {
    const std::string name = planaria::sim::prefetcher_kind_name(kind);
    CHECK(valid_metric_name("prefetch.candidates_per_demand." + name));
  }

  MetricSet set;
  set.set("a.b", "ms", 1.0);
  bool threw = false;
  try {
    set.set("a.b", "ms", 2.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    set.set("bad name", "ms", 2.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  CHECK(result_json(true, 3, 0, set) ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
        "{\"a.b\": {\"value\": 1, \"unit\": \"ms\"}}}");
}

}  // namespace

int main() {
  test_percentiles();
  test_span_self_time();
  test_tick_classification();
  test_digests();
  test_metric_names();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
