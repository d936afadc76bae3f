// planaria-lint engine: file-set construction (disk walk or in-memory),
// suppression application, and report rendering.
#include "lint/internal.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace planaria::lint {
namespace {

namespace fs = std::filesystem;

bool cpp_source(const std::string& path) {
  return path.size() > 4 && (path.rfind(".hpp") == path.size() - 4 ||
                             path.rfind(".cpp") == path.size() - 4);
}

std::string module_of(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return {};
  const std::size_t slash = path.find('/', 4);
  return slash == std::string::npos ? std::string() : path.substr(4, slash - 4);
}

FileInfo make_file(const std::string& path, const std::string& text,
                   std::vector<Finding>& malformed) {
  FileInfo f;
  f.path = path;
  f.module = module_of(path);
  f.is_header = path.rfind(".hpp") == path.size() - 4;
  f.src = tokenize(text);
  analyze(f, malformed);
  return f;
}

/// Applies suppressions and file sanctions: findings move to `suppressed`
/// when a matching directive covers them. A line suppression covers its own
/// line and the next (comment-above style).
Report finalize(std::vector<FileInfo>& files, const Config& config,
                std::vector<Finding> raw, std::vector<Finding> malformed) {
  Report report;
  report.files_scanned = static_cast<int>(files.size());

  std::map<std::string, const FileInfo*> by_path;
  for (const FileInfo& f : files) by_path.emplace(f.path, &f);

  for (Finding& finding : raw) {
    // The state-flow pass resolves its own waivers (volatile(...) directives
    // and layers.conf volatile-member lines) and pre-fills the reason; those
    // findings go straight to the suppressed list so the waiver stays
    // auditable in the report.
    if (!finding.suppress_reason.empty()) {
      report.suppressed.push_back(std::move(finding));
      continue;
    }
    if (config.sanctioned(finding.rule, finding.file)) {
      for (const FileSanction& s : config.sanctions) {
        if (s.rule == finding.rule && s.path == finding.file) {
          finding.suppress_reason = "[layers.conf sanction] " + s.reason;
          break;
        }
      }
      report.suppressed.push_back(std::move(finding));
      continue;
    }
    const FileInfo* f = by_path.count(finding.file) != 0
                            ? by_path.at(finding.file)
                            : nullptr;
    const Suppression* hit = nullptr;
    if (f != nullptr) {
      for (const Suppression& s : f->suppressions) {
        if (s.rule != finding.rule) continue;
        if (s.file_scope || s.line == finding.line ||
            s.line + 1 == finding.line) {
          hit = &s;
          break;
        }
        // no-contract / suppress placed anywhere inside a function body
        // covers a contract-coverage finding on that function: match any
        // suppression within 40 lines below the function head, which is the
        // simple, reviewable approximation of "inside the body".
        if (finding.rule == "contract-coverage" && s.line >= finding.line &&
            s.line <= finding.line + 40) {
          hit = &s;
          break;
        }
      }
    }
    if (hit != nullptr) {
      finding.suppress_reason = hit->reason;
      report.suppressed.push_back(std::move(finding));
    } else {
      report.findings.push_back(std::move(finding));
    }
  }

  for (Finding& m : malformed) report.findings.push_back(std::move(m));

  const auto order = [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  };
  std::sort(report.findings.begin(), report.findings.end(), order);
  std::sort(report.suppressed.begin(), report.suppressed.end(), order);
  return report;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void json_finding(std::ostringstream& out, const Finding& f, bool suppressed) {
  out << "{\"rule\":\"" << json_escape(f.rule) << "\",\"file\":\""
      << json_escape(f.file) << "\",\"line\":" << f.line << ",\"message\":\""
      << json_escape(f.message) << "\"";
  if (suppressed) out << ",\"reason\":\"" << json_escape(f.suppress_reason) << "\"";
  out << "}";
}

}  // namespace

Report run_lint_on(const std::map<std::string, std::string>& sources,
                   const Config& config) {
  std::vector<FileInfo> files;
  std::vector<Finding> malformed;
  files.reserve(sources.size());
  for (const auto& [path, text] : sources) {
    files.push_back(make_file(path, text, malformed));
  }
  return finalize(files, config, run_rules(files, config),
                  std::move(malformed));
}

std::vector<FileInfo> scan_tree(const Options& options,
                                std::vector<Finding>& malformed) {
  const fs::path root(options.root);
  std::vector<FileInfo> files;
  for (const std::string& scan_root : options.scan_roots) {
    const fs::path dir = root / scan_root;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      if (!cpp_source(rel)) continue;
      const bool skipped =
          std::any_of(options.skip_prefixes.begin(),
                      options.skip_prefixes.end(), [&](const std::string& p) {
                        return rel.rfind(p, 0) == 0;
                      });
      if (skipped) continue;
      // lint: suppress(io-raw-stream) planaria-lint links nothing from src/ so it stays buildable while the tree is broken; this is a read-only scan
      std::ifstream in(entry.path(), std::ios::binary);
      if (!in) throw std::runtime_error("cannot read " + rel);
      std::ostringstream buf;
      buf << in.rdbuf();
      files.push_back(make_file(rel, buf.str(), malformed));
    }
  }
  std::sort(files.begin(), files.end(),
            [](const FileInfo& a, const FileInfo& b) { return a.path < b.path; });
  return files;
}

Report run_lint(const Options& options) {
  const fs::path root(options.root);
  if (!fs::is_directory(root)) {
    throw std::runtime_error("lint root is not a directory: " + options.root);
  }
  // Default config is <root>/tools/lint/layers.conf; a bare <root>/layers.conf
  // is the fallback so fixture trees (tools/lint/fixtures/<rule>/) are
  // self-contained lintable roots.
  std::string config_path = options.config_path;
  if (config_path.empty()) {
    config_path = (root / "tools/lint/layers.conf").string();
    if (!fs::is_regular_file(config_path)) {
      config_path = (root / "layers.conf").string();
    }
  }
  const Config config = load_config(config_path);

  std::vector<Finding> malformed;
  std::vector<FileInfo> files = scan_tree(options, malformed);
  return finalize(files, config, run_rules(files, config),
                  std::move(malformed));
}

std::string to_json(const Report& report, const std::string& root) {
  std::ostringstream out;
  out << "{\"tool\":\"planaria-lint\",\"schema_version\":4,\"root\":\""
      << json_escape(root) << "\",\"files_scanned\":" << report.files_scanned
      << ",\"findings\":[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    if (i != 0) out << ",";
    json_finding(out, report.findings[i], false);
  }
  out << "],\"suppressed\":[";
  for (std::size_t i = 0; i < report.suppressed.size(); ++i) {
    if (i != 0) out << ",";
    json_finding(out, report.suppressed[i], true);
  }
  // schema_version 4: per-family counts over *active* findings, so CI can
  // gate the interprocedural families, the VFS-bypass family, and the
  // state-flow family without re-parsing messages (v3 added "io", v4 adds
  // "state"). scripts/check_lint_report.py validates this shape.
  std::size_t race = 0, hot = 0, io = 0, state = 0;
  for (const Finding& f : report.findings) {
    if (f.rule.rfind("race-", 0) == 0) ++race;
    if (f.rule.rfind("hot-", 0) == 0) ++hot;
    if (f.rule.rfind("io-raw", 0) == 0) ++io;
    if (f.rule.rfind("state-", 0) == 0) ++state;
  }
  out << "],\"counts\":{\"findings\":" << report.findings.size()
      << ",\"suppressed\":" << report.suppressed.size() << ",\"race\":" << race
      << ",\"hot\":" << hot << ",\"io\":" << io << ",\"state\":" << state
      << "}}";
  return out.str();
}

}  // namespace planaria::lint
