// planaria-lint engine tests (DESIGN.md §12).
//
// Four layers:
//   * Tokenizer: the heuristic lexer must survive the constructs that break
//     naive regex scanners — raw strings, line continuations, block comments
//     containing directives — because every rule downstream trusts it.
//   * Config + rules: each rule fires on the in-memory and on-disk fixture
//     corpus (tools/lint/fixtures/<rule>/), and ONLY the targeted rule fires
//     per fixture, so a regression in one rule cannot hide behind another.
//   * The real tree: the repo must lint clean at HEAD, and the committed
//     layers.conf must be load-bearing — removing any single layer, allow,
//     hot-stop, or volatile-member line has to produce findings (or a config
//     error), and every hot-root/hot-stop spec must bind a real function.
//     Same for deleting a load_state (the pairing rule) or a single
//     member-serialize line inside a real save_state body (the state-flow
//     family): the mutation must surface as a finding.
//   * Interprocedural layer: the call graph (recursion, overload merging,
//     qualified binding, method-pointer degradation), the lambda capture
//     table, and the race/hot/state rule families over in-memory trees.
//   * Report: the --json schema (schema_version 4) is byte-pinned.

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/internal.hpp"
#include "lint/lint.hpp"

namespace planaria::lint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

TEST(LintTokenizer, RawStringsSwallowQuotesAndCommentMarkers) {
  const TokenizedSource src = tokenize(
      "const char* s = R\"x(quote \" slash // star /* )x\";\nint after = 1;");
  std::size_t strings = 0;
  for (const Token& t : src.tokens) {
    if (t.kind == TokenKind::kString) {
      ++strings;
      EXPECT_EQ(t.text, "quote \" slash // star /* ");
    }
  }
  EXPECT_EQ(strings, 1u);
  // Nothing after the raw string was lost.
  bool saw_after = false;
  for (const Token& t : src.tokens) saw_after |= t.text == "after";
  EXPECT_TRUE(saw_after);
  EXPECT_TRUE(src.comments.empty());
}

TEST(LintTokenizer, LineContinuationsSpliceButKeepCounting) {
  const TokenizedSource src = tokenize(
      "int a \\\n    = 3;\n"
      "#define TWICE(x) \\\n  ((x) + (x))\n"
      "int b = 4;");
  int line_a = 0;
  int line_b = 0;
  for (const Token& t : src.tokens) {
    if (t.text == "a") line_a = t.line;
    if (t.text == "b") line_b = t.line;
  }
  EXPECT_EQ(line_a, 1);
  // The continuation inside the #define still advances the line counter.
  EXPECT_EQ(line_b, 5);
}

TEST(LintTokenizer, BlockCommentsHideIncludeDirectives) {
  const TokenizedSource src = tokenize(
      "/* #include \"fake.hpp\"\n   spans lines */\n"
      "#include \"real.hpp\"\n"
      "#include <vector>\n");
  ASSERT_EQ(src.includes.size(), 2u);
  EXPECT_EQ(src.includes[0].path, "real.hpp");
  EXPECT_TRUE(src.includes[0].quoted);
  EXPECT_EQ(src.includes[0].line, 3);
  EXPECT_EQ(src.includes[1].path, "vector");
  EXPECT_FALSE(src.includes[1].quoted);
  ASSERT_EQ(src.comments.size(), 1u);
  EXPECT_NE(src.comments[0].text.find("fake.hpp"), std::string::npos);
}

TEST(LintTokenizer, PragmaOnceAndPpNumbersAndCharLiterals) {
  const TokenizedSource src = tokenize(
      "#pragma once\n"
      "double d = 1.5e+3;\n"
      "unsigned h = 0x1Fu;\n"
      "char c = '\\'';\n");
  EXPECT_TRUE(src.has_pragma_once);
  std::vector<std::string> numbers;
  std::size_t chars = 0;
  for (const Token& t : src.tokens) {
    if (t.kind == TokenKind::kNumber) numbers.push_back(t.text);
    if (t.kind == TokenKind::kChar) ++chars;
  }
  // The exponent sign stays glued to the pp-number.
  ASSERT_EQ(numbers.size(), 2u);
  EXPECT_EQ(numbers[0], "1.5e+3");
  EXPECT_EQ(numbers[1], "0x1Fu");
  EXPECT_EQ(chars, 1u);
  EXPECT_FALSE(tokenize("int x = 0;").has_pragma_once);
}

TEST(LintTokenizer, DigitSeparatorsStayGluedToTheNumber) {
  const TokenizedSource src = tokenize(
      "unsigned a = 0xFF'FF;\n"
      "long b = 1'000'000;\n"
      "unsigned c = 0b1010'1010;\n");
  std::vector<std::string> numbers;
  for (const Token& t : src.tokens) {
    if (t.kind == TokenKind::kNumber) numbers.push_back(t.text);
  }
  // Each literal is ONE pp-number; a lexer that stops at the apostrophe
  // would emit a bogus kChar and desynchronize everything after it.
  ASSERT_EQ(numbers.size(), 3u);
  EXPECT_EQ(numbers[0], "0xFF'FF");
  EXPECT_EQ(numbers[1], "1'000'000");
  EXPECT_EQ(numbers[2], "0b1010'1010");
  for (const Token& t : src.tokens) EXPECT_NE(t.kind, TokenKind::kChar);
}

TEST(LintTokenizer, NumberFollowedByCharLiteralIsNotASeparator) {
  // An apostrophe only continues a pp-number when digit-ish text follows.
  // Directly after `0x1F`, `'+'` must lex as a char literal (the macro-heavy
  // adjacency case), and ordinary char literals after numbers stay intact.
  const TokenizedSource src = tokenize("g(0x1F'+');\ncase 0x2A: f('a');\n");
  std::vector<std::string> chars;
  std::vector<std::string> numbers;
  for (const Token& t : src.tokens) {
    if (t.kind == TokenKind::kChar) chars.push_back(t.text);
    if (t.kind == TokenKind::kNumber) numbers.push_back(t.text);
  }
  ASSERT_EQ(chars.size(), 2u);
  EXPECT_EQ(chars[0], "+");
  EXPECT_EQ(chars[1], "a");
  ASSERT_EQ(numbers.size(), 2u);
  EXPECT_EQ(numbers[0], "0x1F");
  EXPECT_EQ(numbers[1], "0x2A");
}

TEST(LintTokenizer, U8AndRawStringAdjacency) {
  const TokenizedSource src = tokenize(
      "auto a = u8\"plain\";\n"
      "auto b = u8R\"x(raw \" body)x\";\n"
      "auto c = LR\"(wide raw)\";\n"
      "int u8x = 1;\n");  // identifier starting with u8 stays an identifier
  std::vector<std::string> strings;
  bool saw_u8x = false;
  for (const Token& t : src.tokens) {
    if (t.kind == TokenKind::kString) strings.push_back(t.text);
    if (t.kind == TokenKind::kIdentifier && t.text == "u8x") saw_u8x = true;
  }
  ASSERT_EQ(strings.size(), 3u);
  EXPECT_EQ(strings[0], "plain");
  EXPECT_EQ(strings[1], "raw \" body");
  EXPECT_EQ(strings[2], "wide raw");
  EXPECT_TRUE(saw_u8x);
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

const char* const kMiniConf =
    "layer common\n"
    "layer cache core\n"
    "layer sim\n"
    "allow core -> sim : fixture reason\n"
    "sanction determinism src/sim/clock.cpp : config-time only\n"
    "snapshot-modules core\n"
    "contract-modules cache\n"
    "roundtrip-test tests/test_roundtrip.cpp\n";

TEST(LintConfig, ParsesLayersEdgesAndSanctions) {
  const Config c = parse_config(kMiniConf, "mini.conf");
  EXPECT_EQ(c.layer_of("common"), 0);
  EXPECT_EQ(c.layer_of("cache"), 1);
  EXPECT_EQ(c.layer_of("core"), 1);
  EXPECT_EQ(c.layer_of("sim"), 2);
  EXPECT_EQ(c.layer_of("nope"), -1);
  EXPECT_TRUE(c.edge_allowed("core", "sim"));
  EXPECT_FALSE(c.edge_allowed("cache", "sim"));
  EXPECT_TRUE(c.sanctioned("determinism", "src/sim/clock.cpp"));
  EXPECT_FALSE(c.sanctioned("determinism", "src/sim/other.cpp"));
  EXPECT_FALSE(c.sanctioned("raw-assert", "src/sim/clock.cpp"));
  EXPECT_EQ(c.snapshot_modules.count("core"), 1u);
  EXPECT_EQ(c.contract_modules.count("cache"), 1u);
  // Defaults: save_state and finish mark serialization contexts.
  EXPECT_EQ(c.serialization_apis.count("save_state"), 1u);
  EXPECT_EQ(c.serialization_apis.count("finish"), 1u);
}

TEST(LintConfig, RejectsMalformedLines) {
  // Reason-less allow edge.
  EXPECT_THROW(parse_config("layer a b\nallow a -> b\n", "c"),
               std::runtime_error);
  // Allow edge naming an undeclared module.
  EXPECT_THROW(parse_config("layer a\nallow a -> ghost : why\n", "c"),
               std::runtime_error);
  // Unknown keyword.
  EXPECT_THROW(parse_config("layer a\nforbid a\n", "c"), std::runtime_error);
  // Reason-less sanction.
  EXPECT_THROW(parse_config("layer a\nsanction determinism src/a/x.cpp\n", "c"),
               std::runtime_error);
  // No layers at all.
  EXPECT_THROW(parse_config("# empty\n", "c"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Rules and suppressions, in memory
// ---------------------------------------------------------------------------

std::set<std::string> rule_set(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  return rules;
}

TEST(LintRules, DeletingLoadStateIsCaught) {
  const Config c = parse_config(kMiniConf, "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/pair.hpp"] =
      "#pragma once\n"
      "struct Writer;\n"
      "struct Reader;\n"
      "class Paired {\n"
      " public:\n"
      "  void save_state(Writer& w) const;\n"
      "  void load_state(Reader& r);\n"
      " private:\n"
      "  int counter_ = 0;\n"
      "};\n";
  // The mention must be a real token — a comment would not count.
  files["tests/test_roundtrip.cpp"] =
      "struct Paired;\nint main() { return 0; }\n";
  EXPECT_TRUE(run_lint_on(files, c).clean());

  // Delete the load_state declaration: the class decodes nothing it encodes.
  std::string& header = files["src/core/pair.hpp"];
  const std::size_t at = header.find("  void load_state(Reader& r);\n");
  ASSERT_NE(at, std::string::npos);
  header.erase(at, std::string("  void load_state(Reader& r);\n").size());
  const Report broken = run_lint_on(files, c);
  EXPECT_FALSE(broken.clean());
  EXPECT_EQ(rule_set(broken.findings).count("snapshot-pairing"), 1u);
}

TEST(LintRules, SuppressionWithReasonSilencesAndIsReported) {
  const Config c = parse_config(kMiniConf, "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/seeded.cpp"] =
      "#include <cstdlib>\n"
      "// lint: suppress(determinism) fixture reason text\n"
      "int f() { return rand(); }\n";
  const Report r = run_lint_on(files, c);
  EXPECT_TRUE(r.clean());
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "determinism");
  EXPECT_EQ(r.suppressed[0].suppress_reason, "fixture reason text");
}

TEST(LintRules, SuppressionWithoutReasonIsItselfAFinding) {
  const Config c = parse_config(kMiniConf, "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/seeded.cpp"] =
      "#include <cstdlib>\n"
      "// lint: suppress(determinism)\n"
      "int f() { return rand(); }\n";
  const Report r = run_lint_on(files, c);
  const std::set<std::string> rules = rule_set(r.findings);
  // The malformed directive is reported AND does not silence the finding.
  EXPECT_EQ(rules.count("suppression"), 1u);
  EXPECT_EQ(rules.count("determinism"), 1u);
}

TEST(LintRules, UnknownRuleInSuppressionIsAFinding) {
  const Config c = parse_config(kMiniConf, "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/odd.cpp"] =
      "// lint: suppress(not-a-rule) some reason\n"
      "int f() { return 1; }\n";
  const Report r = run_lint_on(files, c);
  EXPECT_EQ(rule_set(r.findings).count("suppression"), 1u);
}

TEST(LintRules, FileScopeSuppressionCoversEveryLine) {
  const Config c = parse_config(kMiniConf, "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/clocks.cpp"] =
      "// lint: suppress-file(determinism) fixture-wide waiver\n"
      "#include <ctime>\n"
      "long f() { return time(nullptr); }\n"
      "long g() { return clock(); }\n";
  const Report r = run_lint_on(files, c);
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.suppressed.size(), 2u);
}

TEST(LintRules, NoContractWaiverCoversContractCoverage) {
  const Config c = parse_config(kMiniConf, "mini.conf");
  std::map<std::string, std::string> files;
  files["src/cache/bump.hpp"] =
      "#pragma once\n"
      "class Bump {\n"
      " public:\n"
      "  void advance(int by);\n"
      " private:\n"
      "  int position_ = 0;\n"
      "  int steps_ = 0;\n"
      "};\n";
  files["src/cache/bump.cpp"] =
      "#include \"cache/bump.hpp\"\n"
      "void Bump::advance(int by) {\n"
      "  position_ += by;\n"
      "  steps_ += 1;\n"
      "  if (position_ > 9) { position_ = 0; }\n"
      "}\n";
  const Report bare = run_lint_on(files, c);
  EXPECT_EQ(rule_set(bare.findings).count("contract-coverage"), 1u);

  files["src/cache/bump.cpp"] =
      "#include \"cache/bump.hpp\"\n"
      "// lint: no-contract(wraparound counter, nothing to assert)\n"
      "void Bump::advance(int by) {\n"
      "  position_ += by;\n"
      "  steps_ += 1;\n"
      "  if (position_ > 9) { position_ = 0; }\n"
      "}\n";
  const Report waived = run_lint_on(files, c);
  EXPECT_TRUE(waived.clean());
  ASSERT_EQ(waived.suppressed.size(), 1u);
  EXPECT_EQ(waived.suppressed[0].rule, "contract-coverage");
}

// ---------------------------------------------------------------------------
// Interprocedural layer: config keywords, call graph, capture table, and the
// race/hot families over in-memory trees
// ---------------------------------------------------------------------------

TEST(LintConfig, ParsesHotRootsStopsAndParallelApis) {
  const Config c = parse_config(
      "layer core\n"
      "hot-root Simulator::step on_demand\n"
      "hot-stop ThreadPool::parallel_for : amortized batch dispatch\n"
      "parallel-api run_jobs\n",
      "c");
  ASSERT_EQ(c.hot_roots.size(), 2u);
  EXPECT_EQ(c.hot_roots[0], "Simulator::step");
  EXPECT_EQ(c.hot_roots[1], "on_demand");
  ASSERT_EQ(c.hot_stops.size(), 1u);
  // The '::' in a qualified spec must not be mistaken for the ':' that
  // separates the reason.
  EXPECT_EQ(c.hot_stops[0].spec, "ThreadPool::parallel_for");
  EXPECT_EQ(c.hot_stops[0].reason, "amortized batch dispatch");
  EXPECT_EQ(c.parallel_apis.count("run_jobs"), 1u);
  // The built-in parallel APIs stay in alongside additions.
  EXPECT_EQ(c.parallel_apis.count("parallel_for"), 1u);
  EXPECT_EQ(c.parallel_apis.count("submit"), 1u);
  // A hot-stop without a reason is an undocumented exception: rejected.
  EXPECT_THROW(parse_config("layer a\nhot-stop f\n", "c"), std::runtime_error);
}

TEST(LintConfig, ParsesStateRootsAndVolatileMembers) {
  const Config c = parse_config(
      "layer core\n"
      "state-root Simulator::run replay\n"
      "volatile-member DramChannel::next_event_when_ : derived cache\n"
      "volatile-member scratch_ : rebuilt on first use\n",
      "c");
  ASSERT_EQ(c.state_roots.size(), 2u);
  EXPECT_EQ(c.state_roots[0], "Simulator::run");
  EXPECT_EQ(c.state_roots[1], "replay");
  ASSERT_EQ(c.volatile_members.size(), 2u);
  // As with hot-stop, the '::' in a qualified spec must not be read as the
  // ':' that introduces the reason.
  EXPECT_EQ(c.volatile_members[0].spec, "DramChannel::next_event_when_");
  EXPECT_EQ(c.volatile_members[0].reason, "derived cache");
  EXPECT_EQ(c.volatile_members[1].spec, "scratch_");
  EXPECT_EQ(c.volatile_members[1].reason, "rebuilt on first use");
  // A waiver without a reason is a mute button, not an audit trail: rejected.
  EXPECT_THROW(parse_config("layer a\nvolatile-member m_\n", "c"),
               std::runtime_error);
}

FileInfo analyzed_file(const std::string& path, const std::string& text) {
  FileInfo f;
  f.path = path;
  f.module = "core";
  f.src = tokenize(text);
  std::vector<Finding> sink;
  analyze(f, sink);
  return f;
}

TEST(LintCallGraph, RecursionOverloadsAndQualifiedBinding) {
  std::vector<FileInfo> files;
  files.push_back(analyzed_file(
      "src/core/a.cpp",
      "namespace fx {\n"
      "int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }\n"
      "int fib(long n) { return static_cast<int>(n); }\n"
      "struct Runner { void go(); void sweep(); };\n"
      "void Runner::go() { sweep(); }\n"
      "void Runner::sweep() { fib(3); }\n"
      "struct Cleaner { void sweep(); };\n"
      "void Cleaner::sweep() {}\n"
      "}\n"));
  const CallGraph g = build_call_graph(files);
  // Recursion terminates; a bare spec reaches every overload of the name.
  const auto from_fib = g.reachable({"fib"}, {}, nullptr);
  EXPECT_EQ(from_fib.size(), 2u);
  // Unqualified sweep() inside Runner::go binds to Runner::sweep — not to
  // every sweep in the program (C++ lookup prefers the member).
  std::map<std::size_t, std::string> prov;
  const auto from_go = g.reachable({"Runner::go"}, {}, &prov);
  std::set<std::string> names;
  for (const std::size_t id : from_go) names.insert(g.nodes[id].qualified);
  EXPECT_EQ(names.count("Runner::sweep"), 1u);
  EXPECT_EQ(names.count("Cleaner::sweep"), 0u);
  // fib is reached through Runner::sweep, so the whole closure carries the
  // root spec that discovered it.
  EXPECT_EQ(names.count("fib"), 1u);
  for (const std::size_t id : from_go) EXPECT_EQ(prov[id], "Runner::go");
}

TEST(LintCallGraph, MethodPointersCreateNoEdgesAndStopsCut) {
  std::vector<FileInfo> files;
  files.push_back(analyzed_file(
      "src/core/mp.cpp",
      "struct W { void work(); };\n"
      "void W::work() {}\n"
      "void dispatch() { auto fp = &W::work; (void)fp; }\n"
      "void chain_c() {}\n"
      "void chain_b() { chain_c(); }\n"
      "void chain_a() { chain_b(); }\n"));
  const CallGraph g = build_call_graph(files);
  // Taking a method's address is not a call: reachability degrades
  // gracefully to just the root instead of guessing an edge.
  const auto from_dispatch = g.reachable({"dispatch"}, {}, nullptr);
  ASSERT_EQ(from_dispatch.size(), 1u);
  EXPECT_EQ(g.nodes[from_dispatch[0]].bare, "dispatch");
  // A stop removes the node and everything only reachable through it.
  const auto cut = g.reachable({"chain_a"}, {"chain_b"}, nullptr);
  std::set<std::string> names;
  for (const std::size_t id : cut) names.insert(g.nodes[id].bare);
  EXPECT_EQ(names, (std::set<std::string>{"chain_a"}));
}

TEST(LintCaptureTable, LambdasInLambdasAndCaptureModes) {
  const FileInfo f = analyzed_file(
      "src/core/lam.cpp",
      "void outer(int shared) {\n"
      "  int x = 1;\n"
      "  auto a = [&](int i) {\n"
      "    auto b = [=](int j) { return j + i; };\n"
      "    b(i);\n"
      "  };\n"
      "  a(shared);\n"
      "  auto c = [x](int k) { return k + x; };\n"
      "  c(2);\n"
      "}\n");
  ASSERT_EQ(f.lambdas.size(), 3u);  // sorted by intro position: a, b, c
  const LambdaInfo& a = f.lambdas[0];
  EXPECT_TRUE(a.ref_default);
  EXPECT_EQ(a.bound_name, "a");
  EXPECT_EQ(a.first_param, "i");
  // The nested lambda is its own entry, nested inside a's body range, with
  // its own capture default.
  const LambdaInfo& b = f.lambdas[1];
  EXPECT_TRUE(b.value_default);
  EXPECT_FALSE(b.ref_default);
  EXPECT_GT(b.intro_begin, a.body_begin);
  EXPECT_LT(b.body_end, a.body_end);
  const LambdaInfo& c = f.lambdas[2];
  EXPECT_FALSE(c.ref_default);
  EXPECT_EQ(c.by_value.count("x"), 1u);
}

// Acceptance mutation seed: a by-ref-capture write introduced into a
// parallel_for body MUST be caught by the race family.
TEST(LintRules, SeededCaptureWriteIntoParallelForIsCaught) {
  const Config c = parse_config(kMiniConf, "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/shard.cpp"] =
      "struct Pool { void parallel_for(int n, void (*f)(int)); };\n"
      "int tally(Pool& pool, int n) {\n"
      "  int acc = 0;\n"
      "  pool.parallel_for(n, [&](int i) { acc += i; });\n"
      "  return acc;\n"
      "}\n";
  const Report r = run_lint_on(files, c);
  EXPECT_EQ(rule_set(r.findings).count("race-capture-write"), 1u);
}

TEST(LintRules, DisjointSlotWritesAndAtomicsAreNotRaces) {
  const Config c = parse_config(kMiniConf, "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/ok.cpp"] =
      "#include <atomic>\n"
      "#include <cstddef>\n"
      "#include <vector>\n"
      "struct Pool { void parallel_for(std::size_t n, void (*f)(std::size_t)); };\n"
      "void fill(Pool& pool, std::vector<int>& out, std::atomic<int>& hits) {\n"
      "  pool.parallel_for(out.size(), [&](std::size_t i) {\n"
      "    out[i] = static_cast<int>(i) * 2;\n"  // disjoint slot per index
      "    hits.fetch_add(1);\n"                 // atomic RMW
      "  });\n"
      "}\n";
  EXPECT_TRUE(run_lint_on(files, c).clean());
}

TEST(LintRules, HotFamilyFollowsReachabilityAndStops) {
  const Config c = parse_config(
      "layer core\n"
      "hot-root outer\n"
      "hot-stop slow_path : error reporting is off the per-record path\n",
      "c");
  std::map<std::string, std::string> files;
  files["src/core/hot.cpp"] =
      "int* helper(int n) { return new int[n]; }\n"
      "void slow_path(int n) { throw n; }\n"
      "int outer(int n) {\n"
      "  if (n < 0) slow_path(n);\n"
      "  int* p = helper(n);\n"
      "  return p[0];\n"
      "}\n";
  const Report r = run_lint_on(files, c);
  const std::set<std::string> rules = rule_set(r.findings);
  // helper is in outer's closure: its allocation is hot.
  EXPECT_EQ(rules.count("hot-alloc"), 1u);
  // slow_path is stopped: its throw is not.
  EXPECT_EQ(rules.count("hot-throw"), 0u);
  bool saw_provenance = false;
  for (const Finding& f : r.findings) {
    saw_provenance |=
        f.message.find("reachable from hot-root 'outer'") != std::string::npos;
  }
  EXPECT_TRUE(saw_provenance);
}

TEST(LintRules, NoHotRootsMeansHotFamilyIsInert) {
  const Config c = parse_config(kMiniConf, "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/quiet.cpp"] = "int* f(int n) { return new int[n]; }\n";
  EXPECT_TRUE(run_lint_on(files, c).clean());
}

// ---------------------------------------------------------------------------
// State-flow family: member-level save/load reconciliation (DESIGN.md §17)
// ---------------------------------------------------------------------------

// A minimal codec pair; state-flow classifies a member touch as "serializing"
// only when its statement names one of save/load's own parameters.
const char* const kCodec =
    "struct Writer { void u64(unsigned long long) {} };\n"
    "struct Reader { unsigned long long u64() { return 0; } };\n";

TEST(LintStateFlow, SavedButNeverRestoredMemberIsCaught) {
  const Config c = parse_config("layer core\n", "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/thing.cpp"] =
      std::string(kCodec) +
      "class Thing {\n"
      " public:\n"
      "  void save_state(Writer& w) const { w.u64(a_); w.u64(b_); }\n"
      "  void load_state(Reader& r) { a_ = r.u64(); }\n"
      " private:\n"
      "  unsigned long long a_ = 0;\n"
      "  unsigned long long b_ = 0;\n"
      "};\n";
  const Report r = run_lint_on(files, c);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "state-unloaded-member");
  EXPECT_NE(r.findings[0].message.find("'Thing::b_'"), std::string::npos);
}

TEST(LintStateFlow, SaveLoadOrderDivergenceIsCaught) {
  const Config c = parse_config("layer core\n", "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/swapped.cpp"] =
      std::string(kCodec) +
      "class Swapped {\n"
      " public:\n"
      "  void save_state(Writer& w) const { w.u64(a_); w.u64(b_); }\n"
      "  void load_state(Reader& r) { b_ = r.u64(); a_ = r.u64(); }\n"
      " private:\n"
      "  unsigned long long a_ = 0;\n"
      "  unsigned long long b_ = 0;\n"
      "};\n";
  const Report r = run_lint_on(files, c);
  ASSERT_EQ(r.findings.size(), 1u);
  // PLNSNAP1 has no field tags: touch order IS the byte layout, so the
  // swapped decode reads a_'s bytes into b_.
  EXPECT_EQ(r.findings[0].rule, "state-order-mismatch");
}

TEST(LintStateFlow, MutatedButNeverSerializedMemberIsCaught) {
  // The unsaved-member check walks mutation sites reachable from the state
  // roots (unioned with hot roots); without roots it is inert.
  const Config c = parse_config("layer core\nstate-root tick\n", "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/counter.cpp"] =
      std::string(kCodec) +
      "class Counter {\n"
      " public:\n"
      "  void tick() { ++hits_; ++misses_; }\n"
      "  void save_state(Writer& w) const { w.u64(hits_); }\n"
      "  void load_state(Reader& r) { hits_ = r.u64(); }\n"
      " private:\n"
      "  unsigned long long hits_ = 0;\n"
      "  unsigned long long misses_ = 0;\n"
      "};\n";
  const Report r = run_lint_on(files, c);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "state-unsaved-member");
  EXPECT_NE(r.findings[0].message.find("'Counter::misses_'"),
            std::string::npos);
}

TEST(LintStateFlow, SerializedNondeterminismIsCaught) {
  const Config c = parse_config("layer core\n", "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/tagged.cpp"] =
      std::string(kCodec) +
      "class Tagged {\n"
      " public:\n"
      "  void stamp() { seed_ = reinterpret_cast<unsigned long long>(this); }\n"
      "  void save_state(Writer& w) const { w.u64(seed_); }\n"
      "  void load_state(Reader& r) { seed_ = r.u64(); }\n"
      " private:\n"
      "  unsigned long long seed_ = 0;\n"
      "};\n";
  const Report r = run_lint_on(files, c);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "state-det-taint");
  EXPECT_NE(r.findings[0].message.find("'Tagged::seed_'"), std::string::npos);
}

TEST(LintStateFlow, VolatileDirectiveWaivesWithItsReason) {
  const Config c = parse_config("layer core\nstate-root tick\n", "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/counter.cpp"] =
      std::string(kCodec) +
      "class Counter {\n"
      " public:\n"
      "  void tick() { ++hits_; ++misses_; }\n"
      "  void save_state(Writer& w) const { w.u64(hits_); }\n"
      "  void load_state(Reader& r) { hits_ = r.u64(); }\n"
      " private:\n"
      "  unsigned long long hits_ = 0;\n"
      "  // lint: volatile(misses_): diagnostic counter, reset on resume\n"
      "  unsigned long long misses_ = 0;\n"
      "};\n";
  const Report r = run_lint_on(files, c);
  EXPECT_TRUE(r.clean());
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "state-unsaved-member");
  EXPECT_EQ(r.suppressed[0].suppress_reason,
            "diagnostic counter, reset on resume");
}

TEST(LintStateFlow, ConfigVolatileMemberWaivesToo) {
  const Config c = parse_config(
      "layer core\n"
      "state-root tick\n"
      "volatile-member Counter::misses_ : diagnostic counter\n",
      "mini.conf");
  std::map<std::string, std::string> files;
  files["src/core/counter.cpp"] =
      std::string(kCodec) +
      "class Counter {\n"
      " public:\n"
      "  void tick() { ++hits_; ++misses_; }\n"
      "  void save_state(Writer& w) const { w.u64(hits_); }\n"
      "  void load_state(Reader& r) { hits_ = r.u64(); }\n"
      " private:\n"
      "  unsigned long long hits_ = 0;\n"
      "  unsigned long long misses_ = 0;\n"
      "};\n";
  const Report r = run_lint_on(files, c);
  EXPECT_TRUE(r.clean());
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "state-unsaved-member");
  // The config origin is visible in the audit trail.
  EXPECT_NE(r.suppressed[0].suppress_reason.find("layers.conf"),
            std::string::npos);
}

TEST(LintStateFlow, MalformedVolatileDirectiveIsAFinding) {
  const Config c = parse_config("layer core\n", "mini.conf");
  // Reason-less waiver: reported, silences nothing.
  std::map<std::string, std::string> files;
  files["src/core/bad.cpp"] =
      "// lint: volatile(misses_)\n"
      "int f() { return 1; }\n";
  EXPECT_EQ(rule_set(run_lint_on(files, c).findings).count("suppression"), 1u);
  // A member spec without the trailing underscore cannot name a data member.
  files["src/core/bad.cpp"] =
      "// lint: volatile(misses): not a member name\n"
      "int f() { return 1; }\n";
  EXPECT_EQ(rule_set(run_lint_on(files, c).findings).count("suppression"), 1u);
}

// ---------------------------------------------------------------------------
// Fixture corpus on disk: each directory trips exactly its namesake rule
// ---------------------------------------------------------------------------

TEST(LintFixtures, EveryFixtureFailsWithItsNamesakeRule) {
  const fs::path fixtures(PLANARIA_LINT_FIXTURES_DIR);
  ASSERT_TRUE(fs::is_directory(fixtures));
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(fixtures)) {
    if (entry.is_directory()) names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  // One fixture per rule id; growing the rule catalog must grow the corpus.
  const std::vector<std::string> expected = {
      "contract-coverage",  "determinism",       "hot-alloc",
      "hot-env-read",       "hot-iostream",      "hot-mutex",
      "hot-string",         "hot-throw",         "io-raw-call",
      "io-raw-stream",      "layer-cycle",       "layer-undeclared",
      "layering",           "pragma-once",       "race-capture-write",
      "race-nonconst-call", "race-shared-static", "raw-assert",
      "snapshot-missing",   "snapshot-pairing",  "snapshot-roundtrip",
      "state-det-taint",    "state-order-mismatch", "state-unloaded-member",
      "state-unsaved-member", "suppression",     "unordered-iteration",
      "using-namespace"};
  EXPECT_EQ(names, expected);

  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    Options options;
    options.root = (fixtures / name).string();
    const Report report = run_lint(options);
    EXPECT_FALSE(report.clean());
    const std::set<std::string> rules = rule_set(report.findings);
    // The namesake rule fires...
    EXPECT_EQ(rules.count(name), 1u);
    // ...and nothing else does: a fixture that trips extra rules can no
    // longer prove the namesake rule caused the nonzero exit.
    EXPECT_EQ(rules.size(), 1u);
  }
}

// ---------------------------------------------------------------------------
// The real tree
// ---------------------------------------------------------------------------

TEST(LintRepo, TreeIsCleanAtHead) {
  Options options;
  options.root = PLANARIA_LINT_REPO_ROOT;
  const Report report = run_lint(options);
  for (const Finding& f : report.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
  EXPECT_GT(report.files_scanned, 50);
  // Every suppression in the tree carries a reason; that is what makes the
  // suppressed list auditable rather than a mute button.
  for (const Finding& f : report.suppressed) {
    EXPECT_FALSE(f.suppress_reason.empty()) << f.file << ":" << f.line;
  }
}

/// Removes line `index` (0-based, counting only lines matching `prefix`) from
/// the committed layers.conf and returns the mutated text; empty when there
/// is no such line.
std::string drop_nth_line_with_prefix(const std::string& text,
                                      const std::string& prefix,
                                      std::size_t index) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  std::size_t seen = 0;
  bool dropped = false;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      if (seen++ == index) {
        dropped = true;
        continue;
      }
    }
    out << line << "\n";
  }
  return dropped ? out.str() : std::string();
}

TEST(LintRepo, EveryConfigLineIsLoadBearing) {
  const fs::path repo(PLANARIA_LINT_REPO_ROOT);
  std::ifstream in(repo / "tools/lint/layers.conf");
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string committed = buf.str();

  const fs::path scratch =
      fs::temp_directory_path() / "planaria-lint-mutation";
  fs::create_directories(scratch);

  int mutations = 0;
  for (const std::string prefix :
       {"layer ", "allow ", "hot-stop ", "volatile-member "}) {
    for (std::size_t i = 0;; ++i) {
      const std::string mutated =
          drop_nth_line_with_prefix(committed, prefix, i);
      if (mutated.empty()) break;
      ++mutations;
      SCOPED_TRACE(prefix + "line " + std::to_string(i));
      const fs::path conf = scratch / ("mutated_" + std::to_string(mutations) +
                                       ".conf");
      std::ofstream(conf) << mutated;

      Options options;
      options.root = repo.string();
      options.config_path = conf.string();
      try {
        const Report report = run_lint(options);
        // Dropping a layer or allow line must surface findings: the config
        // carries no decorative lines.
        EXPECT_FALSE(report.clean());
      } catch (const std::runtime_error&) {
        // Also acceptable: dropping a layer line orphans an allow edge and
        // the config no longer parses. The gate still fails.
      }
    }
  }
  // The committed config declares 9 layer lines, 7 allow edges and 1
  // hot-stop (dropping the stop floods the hot family with thread-pool
  // internals). It carries no volatile-member waiver: the real tree has no
  // unserialized hot-path state, and a waiver added later joins this count
  // and must be load-bearing too. A rewrite that shrinks the config should
  // be a deliberate act, visible here.
  EXPECT_EQ(mutations, 17);
  fs::remove_all(scratch);
}

// CallGraph::reachable silently ignores a spec that binds nothing, so a
// rename in the simulate spine would drop its hot-path checks without a
// finding. Every hot-root and hot-stop spec in the committed config must
// resolve to at least one function definition in the real tree.
TEST(LintRepo, EveryHotSpecBindsAFunction) {
  const fs::path repo(PLANARIA_LINT_REPO_ROOT);
  const Config config =
      load_config((repo / "tools/lint/layers.conf").string());
  Options options;
  options.root = repo.string();
  std::vector<Finding> malformed;
  const std::vector<FileInfo> files = scan_tree(options, malformed);
  const CallGraph graph = build_call_graph(files);
  const auto binds = [&graph](const std::string& spec) {
    return !graph.reachable({spec}, {}, nullptr).empty();
  };

  ASSERT_FALSE(config.hot_roots.empty());
  for (const std::string& spec : config.hot_roots) {
    EXPECT_TRUE(binds(spec)) << "hot-root '" << spec << "' binds no function";
  }
  ASSERT_FALSE(config.hot_stops.empty());
  for (const HotStop& stop : config.hot_stops) {
    EXPECT_TRUE(binds(stop.spec))
        << "hot-stop '" << stop.spec << "' binds no function";
  }
  // The check has teeth: a spec naming a function that no longer exists
  // (here a spine function under a stale name) binds nothing.
  EXPECT_FALSE(binds("Simulator::step_channel_k"));
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Acceptance mutation seed for the state-flow family: deleting a single
// member-serialize line from a REAL save_state body must surface as a
// state-* finding naming that member. This is the property the byte-pinned
// golden snapshots cannot give us — they catch layout drift only for the
// state the seed trace happens to exercise; the lint family reconciles the
// code paths themselves.
TEST(LintRepo, DeletingAMemberSerializeLineIsCaught) {
  const fs::path repo(PLANARIA_LINT_REPO_ROOT);
  const Config c = parse_config("layer common\nlayer core prefetch\n", "c");

  struct Mutation {
    const char* def_path;   // file holding the save_state body
    const char* decl_path;  // header declaring the class's members
    const char* erase;      // the exact serialize line to delete
    const char* cls;
    const char* member;
  };
  const Mutation kMutations[] = {
      {"src/core/coordinators.cpp", "src/core/coordinators.hpp",
       "  slp_.save_state(w);\n", "SerialComposite", "slp_"},
      {"src/core/coordinators.cpp", "src/core/coordinators.hpp",
       "  tlp_.save_state(w);\n", "SerialComposite", "tlp_"},
      {"src/core/coordinators.cpp", "src/core/coordinators.hpp",
       "  w.b(slp_active_);\n", "SerialComposite", "slp_active_"},
      {"src/core/coordinators.cpp", "src/core/coordinators.hpp",
       "  w.u32(static_cast<std::uint32_t>(slp_failures_));\n",
       "SerialComposite", "slp_failures_"},
      {"src/core/coordinators.cpp", "src/core/coordinators.hpp",
       "  w.u64(switches_);\n", "SerialComposite", "switches_"},
      {"src/prefetch/spp.cpp", "src/prefetch/spp.hpp",
       "  w.u64(static_cast<std::uint64_t>(ghr_next_));\n",
       "SignaturePathPrefetcher", "ghr_next_"},
  };

  for (const Mutation& m : kMutations) {
    SCOPED_TRACE(std::string(m.cls) + "::" + m.member);
    std::map<std::string, std::string> files;
    files[m.def_path] = slurp(repo / m.def_path);
    files[m.decl_path] = slurp(repo / m.decl_path);
    ASSERT_FALSE(files[m.def_path].empty());
    ASSERT_FALSE(files[m.decl_path].empty());

    // Baseline: the untouched pair carries no state findings (other families
    // may grumble about the truncated tree; they are not under test here).
    const auto state_rules = [](const Report& r) {
      std::set<std::string> rules;
      for (const Finding& f : r.findings) {
        if (f.rule.rfind("state-", 0) == 0) rules.insert(f.rule);
      }
      return rules;
    };
    EXPECT_TRUE(state_rules(run_lint_on(files, c)).empty());

    // Delete exactly one serialize line (first occurrence is inside the
    // class's own save_state: the composite bodies come first in the file).
    std::string& body = files[m.def_path];
    const std::size_t at = body.find(m.erase);
    ASSERT_NE(at, std::string::npos);
    body.erase(at, std::string(m.erase).size());

    const Report broken = run_lint_on(files, c);
    bool caught = false;
    const std::string want = std::string("'") + m.cls + "::" + m.member + "'";
    for (const Finding& f : broken.findings) {
      caught |= f.rule.rfind("state-", 0) == 0 &&
                f.message.find(want) != std::string::npos;
    }
    EXPECT_TRUE(caught) << "deleting `" << m.erase
                        << "` produced no state-* finding for " << want;
  }
}

// ---------------------------------------------------------------------------
// JSON report schema (version 4) is byte-pinned
// ---------------------------------------------------------------------------

TEST(LintReport, JsonSchemaVersion4IsStable) {
  Report report;
  report.files_scanned = 2;
  Finding active;
  active.rule = "determinism";
  active.file = "src/core/a.cpp";
  active.line = 7;
  active.message = "call to 'rand()'";
  report.findings.push_back(active);
  Finding race;
  race.rule = "race-capture-write";
  race.file = "src/core/a.cpp";
  race.line = 9;
  race.message = "write to 'n'";
  report.findings.push_back(race);
  Finding hot;
  hot.rule = "hot-alloc";
  hot.file = "src/core/a.cpp";
  hot.line = 11;
  hot.message = "operator new";
  report.findings.push_back(hot);
  Finding quiet;
  quiet.rule = "raw-assert";
  quiet.file = "src/core/b.cpp";
  quiet.line = 3;
  quiet.message = "say \"why\"";
  quiet.suppress_reason = "legacy\tcode";
  report.suppressed.push_back(quiet);

  Finding bypass;
  bypass.rule = "io-raw-call";
  bypass.file = "src/core/a.cpp";
  bypass.line = 13;
  bypass.message = "direct 'fopen'";
  report.findings.push_back(bypass);

  Finding state;
  state.rule = "state-unloaded-member";
  state.file = "src/core/a.cpp";
  state.line = 17;
  state.message = "member 'C::m_' never restored";
  report.findings.push_back(state);

  // Version 4 adds the per-family "state" count of save/load-reconciliation
  // findings next to the version-3 "race"/"hot"/"io" counts — all over
  // ACTIVE findings only, so CI can gate the families without parsing
  // messages (scripts/check_lint_report.py holds the key-level contract).
  const std::string expected =
      "{\"tool\":\"planaria-lint\",\"schema_version\":4,\"root\":\"/r\","
      "\"files_scanned\":2,\"findings\":[{\"rule\":\"determinism\","
      "\"file\":\"src/core/a.cpp\",\"line\":7,"
      "\"message\":\"call to 'rand()'\"},{\"rule\":\"race-capture-write\","
      "\"file\":\"src/core/a.cpp\",\"line\":9,"
      "\"message\":\"write to 'n'\"},{\"rule\":\"hot-alloc\","
      "\"file\":\"src/core/a.cpp\",\"line\":11,"
      "\"message\":\"operator new\"},{\"rule\":\"io-raw-call\","
      "\"file\":\"src/core/a.cpp\",\"line\":13,"
      "\"message\":\"direct 'fopen'\"},{\"rule\":\"state-unloaded-member\","
      "\"file\":\"src/core/a.cpp\",\"line\":17,"
      "\"message\":\"member 'C::m_' never restored\"}],\"suppressed\":["
      "{\"rule\":\"raw-assert\",\"file\":\"src/core/b.cpp\",\"line\":3,"
      "\"message\":\"say \\\"why\\\"\",\"reason\":\"legacy\\tcode\"}],"
      "\"counts\":{\"findings\":5,\"suppressed\":1,\"race\":1,\"hot\":1,"
      "\"io\":1,\"state\":1}}";
  EXPECT_EQ(to_json(report, "/r"), expected);

  Report empty;
  EXPECT_EQ(to_json(empty, ""),
            "{\"tool\":\"planaria-lint\",\"schema_version\":4,\"root\":\"\","
            "\"files_scanned\":0,\"findings\":[],\"suppressed\":[],"
            "\"counts\":{\"findings\":0,\"suppressed\":0,\"race\":0,"
            "\"hot\":0,\"io\":0,\"state\":0}}");
}

}  // namespace
}  // namespace planaria::lint
