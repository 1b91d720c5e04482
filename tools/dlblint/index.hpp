#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dlblint/lexer.hpp"

namespace dlb::lint {

/// One lexed file as the analyzer sees it.  `path` is the virtual
/// repo-relative path used for scoping — for corpus files it is forced by the
/// test driver so a fixture can exercise a src/sim-scoped rule from
/// tests/lint_corpus.
struct FileUnit {
  std::string path;
  std::vector<Token> all;  // includes comments + preprocessor lines
  std::vector<Token> sig;  // significant tokens only
};

/// A function (or coroutine) definition recovered by pass 1.  Indices are
/// into the owning unit's significant token stream.  Detection is heuristic
/// (no semantic analysis): an identifier, a balanced parameter list, then —
/// allowing cv/ref/noexcept qualifiers, a trailing return type and a
/// constructor initializer list — a brace-balanced body.  Overloads collapse
/// onto one name; that is deliberate, the graph is name-level.
struct FunctionDef {
  std::string name;       // unqualified spelling of the definition
  std::string qualified;  // "Class::name" when written qualified, else == name
  std::string file;       // virtual path of the defining unit
  int line = 0;           // line of the name token
  std::size_t name_tok = 0;
  std::size_t body_open = 0;   // '{'
  std::size_t body_close = 0;  // matching '}'
  bool is_coroutine = false;   // body contains co_await / co_return / co_yield
};

/// Project-wide symbol graph shared by every rule in pass 2.
struct SymbolIndex {
  /// Definitions per virtual path, in token order.
  std::map<std::string, std::vector<FunctionDef>> functions;

  /// Function name -> virtual paths of files defining it.
  std::map<std::string, std::set<std::string>> defined_in;

  /// Name-level call graph: caller name -> callee names seen inside any of
  /// the caller's bodies (member calls contribute the bare method name).
  std::map<std::string, std::set<std::string>> calls;

  /// Functions declared with return type `Task<...>` anywhere in the tree,
  /// plus non-coroutine wrappers that `return task_fn(...)` — closed
  /// transitively so the unawaited-task rule sees through forwarding helpers.
  std::set<std::string> task_functions;

  /// Functions defined outside src/sim + src/net whose bodies reach
  /// `schedule_ingress` or a direct mailbox `deliver(...)` — directly or
  /// through other such functions.  Primitive sites carrying a justified
  /// shard-isolation waiver are sanctioned and do not poison their callers.
  /// (The marker is not spelled here: the literal text would register as a
  /// waiver of this very header.)
  std::set<std::string> ingress_reaching;

  /// Functions that advance a support::Rng stream (a draw method on an
  /// Rng-typed variable), directly or transitively.  Used by the seed-stream
  /// rule to spot draws hidden behind helpers in conditional expressions.
  std::set<std::string> draw_reaching;
};

/// Pass 1: builds the project-wide index over all units.
[[nodiscard]] SymbolIndex build_index(const std::vector<FileUnit>& units);

/// Innermost function definition in `file` whose body contains significant
/// token index `sig_idx`, or nullptr.
[[nodiscard]] const FunctionDef* enclosing_function(const SymbolIndex& index,
                                                    const std::string& file,
                                                    std::size_t sig_idx);

/// True when `name` can reach `target` through `index.calls` (name-level,
/// `name` itself counts when it equals `target`).
[[nodiscard]] bool reaches(const SymbolIndex& index, const std::string& name,
                           const std::string& target);

}  // namespace dlb::lint
