// Internal shapes shared between planaria-lint's analysis, rules, and
// engine translation units. Not part of the public lint.hpp surface.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace planaria::lint {

struct Suppression {
  std::string rule;
  std::string reason;
  int line = 0;
  bool file_scope = false;
};

/// The `volatile(<member>): reason` directive (lint-prefixed, like every
/// suppression) — declares one data member to be
/// derived or scratch state for the state-* family: it may be mutated on hot
/// paths without being serialized, and may be rebuilt on one side of the
/// save/load pair only. The reason is mandatory; a reason-less directive is
/// itself a finding, like every other mute button in this tool.
struct MemberWaiver {
  std::string member;
  std::string reason;
  int line = 0;
};

struct FunctionDef {
  std::string name;
  std::string class_name;  ///< `Cls` for `Cls::name(...)` definitions
  bool is_const = false;
  int line = 0;
  std::size_t params_begin = 0, params_end = 0;  ///< token indices of ( )
  std::size_t body_begin = 0, body_end = 0;      ///< token indices of { }
};

struct DataMember {
  std::string name;
  int line = 0;
};

/// A lambda expression with its capture table (DESIGN.md §13). Collected
/// structurally; whether it is a *parallel root* (passed to a parallel API)
/// is decided later against the config's parallel-api list.
struct LambdaInfo {
  int line = 0;
  std::size_t intro_begin = 0, intro_end = 0;  ///< token indices of [ ]
  std::size_t body_begin = 0, body_end = 0;    ///< token indices of { }
  std::string bound_name;   ///< `auto name = [...]` binding, if any
  std::string first_param;  ///< name of the first parameter, if any
  bool ref_default = false;      ///< [&] capture default
  bool value_default = false;    ///< [=] capture default
  bool captures_this = false;    ///< [this] (not [*this], which copies)
  bool has_lock = false;         ///< body constructs a lock_guard-style lock
  std::set<std::string> by_ref;    ///< explicit &name captures
  std::set<std::string> by_value;  ///< explicit name / name=expr captures
  std::set<std::string> params;
  std::set<std::string> locals;    ///< heuristic body-local declarations
};

struct ClassInfo {
  std::string name;
  int line = 0;
  bool is_class = false;  ///< `class` vs `struct`
  std::vector<std::string> bases;
  /// Token indices of the class body braces { }, so the state-flow pass can
  /// associate inline method definitions (empty FunctionDef::class_name)
  /// with the class whose body contains them.
  std::size_t body_begin = 0, body_end = 0;
  int save_state_line = 0;  ///< 0 = no save_state declared
  int load_state_line = 0;
  std::vector<DataMember> members;
  /// Public non-const methods declared in the class body: name -> line.
  std::multimap<std::string, int> public_mutating_methods;
  /// Class declares a mutex/shared_mutex member: treated as internally
  /// synchronized by the race rules (documented soundness trade, §13).
  bool has_mutex_member = false;

  bool has_save() const { return save_state_line != 0; }
  bool has_load() const { return load_state_line != 0; }
};

struct FileInfo {
  std::string path;    ///< repo-relative, '/' separators
  std::string module;  ///< `<mod>` for src/<mod>/...; empty otherwise
  bool is_header = false;
  TokenizedSource src;
  std::vector<Suppression> suppressions;
  /// Parsed `volatile(<member>): reason` waiver directives.
  std::vector<MemberWaiver> volatile_waivers;
  std::set<std::string> unordered_names;
  /// Identifiers declared as std::atomic<...> in this file.
  std::set<std::string> atomic_names;
  std::vector<FunctionDef> functions;
  std::vector<ClassInfo> classes;
  std::vector<LambdaInfo> lambdas;  ///< sorted by intro_begin
};

// ---------------------------------------------------------------------------
// Call graph (tools/lint/callgraph.cpp, DESIGN.md §13)

/// One function definition as a call-graph node. Pointers reference the
/// FileInfo vector the graph was built from; the graph must not outlive it.
struct CallGraphNode {
  std::string qualified;  ///< "Cls::name" for member definitions, else "name"
  std::string bare;
  const FileInfo* file = nullptr;
  const FunctionDef* fn = nullptr;
  std::set<std::string> callees;  ///< callee names found in the body; bound
                                  ///< to "Cls::name" where the tokens allow
};

struct CallGraph {
  std::vector<CallGraphNode> nodes;
  /// bare / qualified name -> indices into `nodes` (overloads merge by name).
  std::map<std::string, std::vector<std::size_t>> by_bare;
  std::map<std::string, std::vector<std::size_t>> by_qualified;

  /// Node indices reachable from `roots` without passing through `stops`.
  /// A spec containing "::" matches qualified names exactly; a bare spec
  /// matches every overload and every class's method of that name.
  /// `provenance`, when non-null, maps each reached node to the root spec
  /// that first reached it.
  std::vector<std::size_t> reachable(
      const std::vector<std::string>& roots,
      const std::vector<std::string>& stops,
      std::map<std::size_t, std::string>* provenance) const;
};

CallGraph build_call_graph(const std::vector<FileInfo>& files);

/// Reads and analyzes every C++ source under options.scan_roots (minus
/// options.skip_prefixes), sorted by path — the file set run_lint checks.
/// Malformed suppressions land in `malformed`.
std::vector<FileInfo> scan_tree(const Options& options,
                                std::vector<Finding>& malformed);

/// Fills file.lambdas (capture table, params, locals, lock detection).
void collect_lambdas(FileInfo& file);

/// Bare names of call sites inside the token range [begin, end] — the same
/// collection the call-graph builder uses for function bodies, exposed so
/// the race rules can seed reachability from parallel lambda bodies.
std::set<std::string> collect_callees(const TokenizedSource& src,
                                      std::size_t begin, std::size_t end);

/// True for every rule id the engine can emit (suppressions must name one).
bool known_rule(const std::string& rule);

/// Tokenize + structural passes; malformed suppressions land in `malformed`.
void analyze(FileInfo& file, std::vector<Finding>& malformed);

/// All rule passes over the analyzed file set; returns raw findings (the
/// engine applies suppressions afterwards).
std::vector<Finding> run_rules(const std::vector<FileInfo>& files,
                               const Config& config);

/// The member-level state-flow pass (tools/lint/stateflow.cpp, DESIGN.md
/// §17): for every class with a save_state/load_state pair, reconciles the
/// members the pair serializes against each other (state-unloaded-member,
/// state-order-mismatch), against every mutation reachable from the state
/// roots (state-unsaved-member), and against the determinism ban list
/// (state-det-taint). Waived findings arrive with suppress_reason pre-filled
/// so the engine routes them to the suppressed list.
void rule_state(const std::vector<FileInfo>& files, const Config& config,
                const CallGraph& graph, std::vector<Finding>& out);

}  // namespace planaria::lint
