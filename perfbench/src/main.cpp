// perfbench: runs one benchmark workload and prints its result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--expect-digest <hex>] [--tmp <dir>] [--report <file>]
//             [--rev <git rev>]
//   perfbench --digest <sweep|serve-fleet> --seed <n> [--tmp <dir>]
//
// The human-readable report goes to stderr; the last stdout line is the
// JSON result. Exit status: 0 when every check passed, 1 when a check
// failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') usage(flag + " needs a whole number");
  return x;
}

void print_set(const char* title, const perfbench::MetricSet& set) {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& m : set.all()) {
    std::fprintf(stderr, "  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  opt.tmp_dir = ".bench_tmp";
  std::string report_path;
  std::string rev = "unknown";
  std::string digest_family;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(flag, v));
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (flag == "--expect-digest") {
      opt.expect_digest = v;
    } else if (flag == "--tmp") {
      opt.tmp_dir = v;
    } else if (flag == "--report") {
      report_path = v;
    } else if (flag == "--rev") {
      rev = v;
    } else if (flag == "--digest") {
      digest_family = v;
    } else {
      usage("unknown flag " + flag);
    }
  }

  try {
    if (!digest_family.empty()) {
      std::printf("%s\n",
                  perfbench::pass_digest(digest_family, opt.seed, opt.tmp_dir).c_str());
      return 0;
    }
    if (!have_workload) usage("--workload is required");
    bool known = false;
    for (const auto& w : perfbench::workload_names()) known = known || w == opt.workload;
    if (!known) usage("unknown workload " + opt.workload);

    const std::string cpu = cpu_model();
    const unsigned nproc = std::thread::hardware_concurrency();
    std::fprintf(stderr,
                 "perfbench %s seed=%llu seconds=%g trace=%d\n"
                 "  machine: %s, nproc=%u, rev=%s\n",
                 opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                 opt.seconds, opt.trace ? 1 : 0, cpu.c_str(), nproc, rev.c_str());

    const perfbench::RunResult r = perfbench::run_workload(opt);
    const double failed_share = static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted == 0 ? 1 : r.attempted);
    print_set(opt.trace ? "per-layer metrics (traced run):"
                        : "end-to-end metrics (untraced run):",
              r.metrics);
    print_set("run details:", r.report);
    std::fprintf(stderr, "  failed_share %.6g (%llu of %llu operations)\n",
                 failed_share, static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.attempted));
    std::fprintf(stderr, "  digest %s%s\n", r.digest.c_str(),
                 opt.expect_digest.empty() ? " (no recorded digest for this seed)"
                                           : " (recorded)");
    for (const auto& f : r.failures) std::fprintf(stderr, "  FAILED: %s\n", f.c_str());

    if (!report_path.empty()) {
      std::ofstream out(report_path);
      out << "{\"workload\": " << perfbench::json_string(opt.workload)
          << ", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
          << ", \"trace\": " << (opt.trace ? 1 : 0)
          << ", \"cpu_model\": " << perfbench::json_string(cpu)
          << ", \"nproc\": " << nproc << ", \"rev\": " << perfbench::json_string(rev)
          << ", \"digest\": " << perfbench::json_string(r.digest)
          << ", \"failed_share\": " << perfbench::json_number(failed_share)
          << ", \"metrics\": " << perfbench::metrics_json(r.metrics)
          << ", \"details\": " << perfbench::metrics_json(r.report) << ", \"spans\": {";
      bool first = true;
      for (const auto& [name, t] : r.spans) {
        out << (first ? "" : ", ") << perfbench::json_string(name)
            << ": {\"spans\": " << t.spans
            << ", \"total_ms\": " << perfbench::json_number(t.total_ns / 1e6)
            << ", \"self_ms\": " << perfbench::json_number(t.self_ns / 1e6)
            << ", \"count\": " << t.count << "}";
        first = false;
      }
      out << "}, \"failures\": [";
      for (std::size_t i = 0; i < r.failures.size(); ++i) {
        out << (i ? ", " : "") << perfbench::json_string(r.failures[i]);
      }
      out << "]}\n";
    }
    std::printf("%s\n", perfbench::result_json(r.correct, r.attempted, r.failed,
                                               r.metrics).c_str());
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
