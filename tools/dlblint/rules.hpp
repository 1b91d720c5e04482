#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "dlblint/index.hpp"
#include "dlblint/lexer.hpp"

namespace dlb::lint {

/// A byte-span replacement the autofixer can apply mechanically.  Offsets
/// are into the raw file bytes (the lexer's token spans), so edits survive
/// any whitespace style.
struct TextEdit {
  std::size_t offset = 0;
  std::size_t length = 0;
  std::string replacement;
};

inline bool operator<(const TextEdit& a, const TextEdit& b) {
  if (a.offset != b.offset) return a.offset < b.offset;
  if (a.length != b.length) return a.length < b.length;
  return a.replacement < b.replacement;
}

struct Diagnostic {
  std::string file;  // repo-relative path, '/' separators
  int line = 0;
  std::string rule;
  std::string message;
  /// Mechanical autofix for this finding (empty when the rule has none).
  /// Applied by `dlblint --fix`; never affects diagnostic identity.
  std::vector<TextEdit> edits = {};
};

inline bool operator<(const Diagnostic& a, const Diagnostic& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) return a.rule < b.rule;
  return a.message < b.message;
}

/// A parsed allow-marker waiver: the marker prefix, a parenthesized rule
/// id, then free-text justification.  The marker span points at the
/// marker text inside the raw file so the fixer can normalize bad markers
/// away.  (The prefix is spelled out only in rules_common.cpp — writing it
/// in a comment here would register as a waiver of this very header.)
struct Suppression {
  std::string file;
  int line = 0;  // comment start line; covers this line and the next
  std::string rule;
  bool has_justification = false;
  std::string justification;       // trimmed text after the ')'
  std::size_t marker_offset = 0;   // byte offset of "dlblint:allow("
  std::size_t marker_length = 0;   // through the closing ')'
};

/// Parses every allow marker in the unit's comments.
[[nodiscard]] std::vector<Suppression> parse_suppressions(const FileUnit& unit);

/// Whole-repo facts gathered in pass 1 and shared by every rule: the symbol
/// index / call graph.  Single-file entry points build a one-unit index, so
/// rules can rely on it unconditionally.
struct Project {
  SymbolIndex index;
};

using RuleFn = void (*)(const FileUnit&, const Project&, std::vector<Diagnostic>&);

struct Rule {
  const char* id;
  const char* family;   // determinism | coroutine | layering | hygiene
  const char* summary;  // one line for --list-rules and docs
  RuleFn fn;
};

/// The registry, in stable documentation order.
[[nodiscard]] const std::vector<Rule>& all_rules();

// ---- shared helpers (defined in rules_common.cpp) ----

/// First path component after "src/" ("sim", "core", ...), empty otherwise.
[[nodiscard]] std::string module_of(const std::string& path);

/// True when `path` is inside one of the determinism-guarded modules
/// (src/sim, src/core, src/net, src/fault, src/obs, src/svc).
[[nodiscard]] bool in_guarded_dirs(const std::string& path);

[[nodiscard]] bool is_header(const std::string& path);
[[nodiscard]] bool starts_with(const std::string& s, const std::string& prefix);

/// Modules that run on top of the cluster/network stack and must route
/// cross-shard work through the ingress channel.  Shared between the
/// shard-isolation rule (direct sites) and the symbol index (reach-set
/// base), so both always agree on the boundary.
[[nodiscard]] bool shard_isolated_module(const std::string& module);

/// Index of the matching closer for an opener at `open` ('(', '[', '{', '<'),
/// or `sig.size()` when unbalanced.  For '<' the scan is template-arg
/// heuristic: ';' or '{' aborts (comparison, not template).
[[nodiscard]] std::size_t match_forward(const std::vector<Token>& sig, std::size_t open);

/// A detected coroutine signature: `Task<...> name(` or `Process name(`
/// (optionally `sim::`-qualified).  `name` / `lparen` are indices into the
/// significant token stream.
struct CoroSig {
  std::size_t name = 0;
  std::size_t lparen = 0;
  bool is_process = false;
};
[[nodiscard]] std::vector<CoroSig> coroutine_signatures(const std::vector<Token>& sig);

}  // namespace dlb::lint
