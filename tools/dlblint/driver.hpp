#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dlblint/rules.hpp"

namespace dlb::lint {

struct Options {
  /// Restrict to these rule ids; empty = all rules.
  std::vector<std::string> rules;
};

/// One input: a file on disk plus the repo-relative path rules should treat
/// it as ("virtual path") — identical to the disk path for a tree scan, but
/// corpus fixtures force e.g. "src/sim/fixture.cpp" so scoped rules fire.
struct Input {
  std::string disk_path;
  std::string virtual_path;
};

/// Lints one already-loaded source text (exposed for unit tests).
[[nodiscard]] std::vector<Diagnostic> lint_source(const std::string& source,
                                                  const std::string& virtual_path,
                                                  const Project& project,
                                                  const Options& options = {});

/// Reads, lexes and lints `inputs` (pass 1 builds the project-wide symbol
/// index, pass 2 runs the rules against it), returning diagnostics sorted by
/// (file, line, rule, message).  Suppression comments are honored; malformed
/// suppressions produce diagnostics of their own.  Throws std::runtime_error
/// on unreadable files.
[[nodiscard]] std::vector<Diagnostic> lint_files(const std::vector<Input>& inputs,
                                                 const Options& options = {});

/// Discovers the scanned tree under `root`: src/, bench/, tests/ and
/// tools/dlblint (self-check), excluding tests/lint_corpus (intentional
/// violations).  Paths come back sorted, repo-relative.
[[nodiscard]] std::vector<Input> discover(const std::string& root);

/// Every allow marker in the inputs, sorted by (file, line, rule) — the
/// reviewable waiver inventory behind --list-suppressions.
[[nodiscard]] std::vector<Suppression> collect_suppressions(const std::vector<Input>& inputs);

[[nodiscard]] std::string render_human(const std::vector<Diagnostic>& diags);
[[nodiscard]] std::string render_json(const std::vector<Diagnostic>& diags);
[[nodiscard]] std::string render_suppressions(const std::vector<Suppression>& sups);

/// SARIF 2.1.0 (static-analysis results interchange format) document for
/// GitHub code scanning.  Byte-stable: the same diagnostics always render
/// the same bytes.  Defined in sarif.cpp.
[[nodiscard]] std::string render_sarif(const std::vector<Diagnostic>& diags);

/// JSON string escaping shared by the JSON and SARIF writers.
[[nodiscard]] std::string json_escape(const std::string& s);

// ---- autofixer (fixer.cpp) ----

/// Applies non-overlapping byte-span edits to `source` (overlapping edits:
/// first by offset wins, the rest are dropped).
[[nodiscard]] std::string apply_edits(const std::string& source, std::vector<TextEdit> edits);

struct FixStats {
  std::size_t passes = 0;         // lint+apply rounds until a fixpoint
  std::size_t edits_applied = 0;  // total byte-span edits written
  std::size_t files_changed = 0;
};

/// `dlblint --fix`: repeatedly lints `inputs` and applies every mechanical
/// edit the rules attached, rewriting files in place until a pass produces
/// no edits (bounded; a second run is always a no-op).
FixStats fix_files(const std::vector<Input>& inputs, const Options& options = {});

}  // namespace dlb::lint
