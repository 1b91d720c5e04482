// Pass 1 of the two-pass analyzer: a project-wide symbol index and name-level
// call graph built on the dependency-free lexer.  Everything here is
// heuristic — no semantic analysis, overloads collapse onto one name — which
// is exactly enough for the interprocedural rules (transitive shard
// isolation, task-wrapper propagation, draw-reach) while staying robust on
// any file the compiler itself accepts.
#include "dlblint/index.hpp"

#include <algorithm>

#include "dlblint/rules.hpp"

namespace dlb::lint {
namespace {

/// Names that can precede a '(' without being a function definition or a
/// call worth recording (control flow, casts, operators).
bool rejected_name(const std::string& t) {
  static const std::set<std::string> kReject = {
      "if",         "for",       "while",      "switch",        "catch",
      "return",     "co_return", "co_await",   "co_yield",      "sizeof",
      "alignof",    "alignas",   "decltype",   "static_assert", "new",
      "delete",     "case",      "throw",      "requires",      "noexcept",
      "operator",   "static_cast", "dynamic_cast", "reinterpret_cast",
      "const_cast", "assert",    "defined",    "typeid",
  };
  return kReject.count(t) != 0;
}

bool sanctioned_file(const std::string& path) {
  return starts_with(path, "src/sim/") || starts_with(path, "src/net/");
}

/// Parses a constructor initializer list starting after the ':' at `j`
/// (member `(...)` or `{...}` items separated by commas) and returns the
/// index of the body '{', or sig.size() when the shape does not match.
std::size_t skip_ctor_init_list(const std::vector<Token>& sig, std::size_t j) {
  for (;;) {
    if (j >= sig.size() || sig[j].kind != TokenKind::kIdentifier) return sig.size();
    ++j;
    while (j + 1 < sig.size() && sig[j].text == "::" &&
           sig[j + 1].kind == TokenKind::kIdentifier) {
      j += 2;
    }
    if (j < sig.size() && sig[j].text == "<") {
      const std::size_t c = match_forward(sig, j);
      if (c == sig.size()) return sig.size();
      j = c + 1;
    }
    if (j >= sig.size() || (sig[j].text != "(" && sig[j].text != "{")) return sig.size();
    const std::size_t c = match_forward(sig, j);
    if (c == sig.size()) return sig.size();
    j = c + 1;
    if (j < sig.size() && sig[j].text == ",") {
      ++j;
      continue;
    }
    break;
  }
  return (j < sig.size() && sig[j].text == "{") ? j : sig.size();
}

/// Finds the body '{' of a candidate definition whose parameter list closed
/// at `close`, tolerating cv/ref qualifiers, noexcept(...), trailing return
/// types and constructor initializer lists.  Returns sig.size() when the
/// tokens cannot be a definition (a call, a declaration, a condition...).
std::size_t find_body_open(const std::vector<Token>& sig, std::size_t close) {
  std::size_t j = close + 1;
  while (j < sig.size()) {
    const std::string& t = sig[j].text;
    if (t == "{") return j;
    if (t == ";") return sig.size();
    if (t == ":") return skip_ctor_init_list(sig, j + 1);
    if (t == "noexcept" && j + 1 < sig.size() && sig[j + 1].text == "(") {
      const std::size_t c = match_forward(sig, j + 1);
      if (c == sig.size()) return sig.size();
      j = c + 1;
      continue;
    }
    const bool qualifier = t == "const" || t == "noexcept" || t == "override" || t == "final" ||
                           t == "mutable" || t == "&" || t == "&&" || t == "->" || t == "::" ||
                           t == "<" || t == ">" || t == "*" ||
                           sig[j].kind == TokenKind::kIdentifier;
    if (!qualifier) return sig.size();
    ++j;
  }
  return sig.size();
}

std::string qualified_name(const std::vector<Token>& sig, std::size_t name_tok) {
  std::size_t i = name_tok;
  if (i > 0 && sig[i - 1].text == "~") --i;  // destructor: ~Foo
  if (i >= 2 && sig[i - 1].text == "::" && sig[i - 2].kind == TokenKind::kIdentifier) {
    return sig[i - 2].text + "::" + sig[name_tok].text;
  }
  return sig[name_tok].text;
}

std::vector<FunctionDef> detect_functions(const FileUnit& unit) {
  const std::vector<Token>& sig = unit.sig;
  std::vector<FunctionDef> out;
  for (std::size_t i = 0; i + 1 < sig.size(); ++i) {
    if (sig[i].kind != TokenKind::kIdentifier || sig[i + 1].text != "(") continue;
    if (rejected_name(sig[i].text)) continue;
    const std::size_t close = match_forward(sig, i + 1);
    if (close == sig.size()) continue;
    const std::size_t body_open = find_body_open(sig, close);
    if (body_open == sig.size()) continue;
    const std::size_t body_close = match_forward(sig, body_open);
    if (body_close == sig.size()) continue;
    FunctionDef def;
    def.name = sig[i].text;
    def.qualified = qualified_name(sig, i);
    def.file = unit.path;
    def.line = sig[i].line;
    def.name_tok = i;
    def.body_open = body_open;
    def.body_close = body_close;
    for (std::size_t b = body_open + 1; b < body_close; ++b) {
      const std::string& t = sig[b].text;
      if (t == "co_await" || t == "co_return" || t == "co_yield") {
        def.is_coroutine = true;
        break;
      }
    }
    out.push_back(std::move(def));
  }
  return out;
}

/// Matches `Task` `<` ... `>` IDENT `(` anchored at index `i` (the `Task`
/// token) and reports the IDENT index, or sig.size().  This is the shared
/// shape for "declared coroutine returning Task<...>" — declarations count,
/// so headers feed the cross-file set.
std::size_t task_function_name_index(const std::vector<Token>& sig, std::size_t i) {
  if (sig[i].text != "Task" || i + 1 >= sig.size() || sig[i + 1].text != "<") return sig.size();
  const std::size_t close = match_forward(sig, i + 1);
  if (close == sig.size() || close + 2 >= sig.size()) return sig.size();
  if (sig[close + 1].kind != TokenKind::kIdentifier) return sig.size();
  if (sig[close + 2].text != "(") return sig.size();
  return close + 1;
}

/// Variable (or member / parameter) names declared with type `Rng` in this
/// unit: `Rng` [const &* ]* IDENT.
std::set<std::string> rng_variables(const std::vector<Token>& sig) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < sig.size(); ++i) {
    if (sig[i].kind != TokenKind::kIdentifier || sig[i].text != "Rng") continue;
    std::size_t j = i + 1;
    while (j < sig.size() &&
           (sig[j].text == "&" || sig[j].text == "*" || sig[j].text == "const")) {
      ++j;
    }
    if (j < sig.size() && sig[j].kind == TokenKind::kIdentifier) names.insert(sig[j].text);
  }
  return names;
}

bool is_draw_method(const std::string& t) {
  return t == "next" || t == "uniform01" || t == "uniform_int" || t == "uniform";
}

/// True when the body span [begin, end) of `sig` contains a draw call on one
/// of `rng_vars` (e.g. `class_rng_.uniform01(`).
bool body_draws(const std::vector<Token>& sig, std::size_t begin, std::size_t end,
                const std::set<std::string>& rng_vars) {
  for (std::size_t b = begin; b + 3 < sig.size() && b < end; ++b) {
    if (sig[b].kind != TokenKind::kIdentifier || rng_vars.count(sig[b].text) == 0) continue;
    if ((sig[b + 1].text == "." || sig[b + 1].text == "->") && is_draw_method(sig[b + 2].text) &&
        sig[b + 3].text == "(") {
      return true;
    }
  }
  return false;
}

/// True when line `line` of `unit` is waived for `rule` by a justified
/// dlblint:allow comment (same line-and-next coverage the driver applies).
bool line_waived(const std::vector<Suppression>& sups, const std::string& rule, int line) {
  for (const Suppression& s : sups) {
    if (s.rule == rule && s.has_justification && (line == s.line || line == s.line + 1)) {
      return true;
    }
  }
  return false;
}

/// True when the body span contains an unwaived shard-crossing primitive:
/// the `schedule_ingress` identifier or a member `deliver(` call.
bool body_touches_ingress(const FileUnit& unit, const FunctionDef& def,
                          const std::vector<Suppression>& sups) {
  const std::vector<Token>& sig = unit.sig;
  for (std::size_t b = def.body_open + 1; b < def.body_close; ++b) {
    const Token& t = sig[b];
    if (t.kind != TokenKind::kIdentifier) continue;
    const bool ingress = t.text == "schedule_ingress";
    const bool deliver = t.text == "deliver" && b > 0 &&
                         (sig[b - 1].text == "." || sig[b - 1].text == "->") &&
                         b + 1 < sig.size() && sig[b + 1].text == "(";
    if ((ingress || deliver) && !line_waived(sups, "shard-isolation", t.line)) return true;
  }
  return false;
}

}  // namespace

SymbolIndex build_index(const std::vector<FileUnit>& units) {
  SymbolIndex index;

  // Definitions, call edges, per-function facts.
  std::set<std::string> draws_directly;
  std::set<std::string> ingress_directly;
  std::map<std::string, std::vector<const FunctionDef*>> defs_by_name;
  for (const FileUnit& unit : units) {
    std::vector<FunctionDef> defs = detect_functions(unit);
    const std::vector<Suppression> sups = parse_suppressions(unit);
    const std::set<std::string> rng_vars = rng_variables(unit.sig);
    std::set<std::size_t> def_name_toks;
    for (const FunctionDef& def : defs) def_name_toks.insert(def.name_tok);
    for (const FunctionDef& def : defs) {
      index.defined_in[def.name].insert(unit.path);
      std::set<std::string>& callees = index.calls[def.name];
      const std::vector<Token>& sig = unit.sig;
      for (std::size_t b = def.body_open + 1; b + 1 < sig.size() && b < def.body_close; ++b) {
        if (sig[b].kind != TokenKind::kIdentifier || sig[b + 1].text != "(") continue;
        if (rejected_name(sig[b].text) || def_name_toks.count(b) != 0) continue;
        callees.insert(sig[b].text);
      }
      if (body_draws(unit.sig, def.body_open + 1, def.body_close, rng_vars)) {
        draws_directly.insert(def.name);
      }
      // Only defs inside shard-isolated modules seed the ingress reach set:
      // test helpers and tools are different runtimes, and a name-level
      // graph would let their names poison unrelated callers that happen
      // to share a name.
      if (shard_isolated_module(module_of(unit.path)) &&
          body_touches_ingress(unit, def, sups)) {
        ingress_directly.insert(def.name);
      }
    }
    index.functions[unit.path] = std::move(defs);
    // Task<...> declarations feed the cross-file set even without a body.
    for (std::size_t i = 0; i < unit.sig.size(); ++i) {
      const std::size_t name = task_function_name_index(unit.sig, i);
      if (name != unit.sig.size()) index.task_functions.insert(unit.sig[name].text);
    }
  }
  for (const auto& [file, defs] : index.functions) {
    for (const FunctionDef& def : defs) defs_by_name[def.name].push_back(&def);
  }

  // A name is sanctioned when any of its definitions lives in src/sim or
  // src/net — the layer that owns the ingress channel.
  auto sanctioned_name = [&](const std::string& name) {
    for (const FunctionDef* def : defs_by_name[name]) {
      if (sanctioned_file(def->file)) return true;
    }
    return false;
  };

  // Transitive reach sets, fixpoint over the name-level call graph.  Only
  // defined functions propagate (unknown names have no bodies to look into),
  // and the sim/net boundary stops ingress poisoning.
  auto propagate = [&](std::set<std::string> reaching, bool stop_at_sanctioned) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [caller, callees] : index.calls) {
        if (reaching.count(caller) != 0) continue;
        if (stop_at_sanctioned && sanctioned_name(caller)) continue;
        for (const std::string& callee : callees) {
          if (reaching.count(callee) != 0) {
            reaching.insert(caller);
            changed = true;
            break;
          }
        }
      }
    }
    return reaching;
  };
  std::set<std::string> ingress_base;
  for (const std::string& name : ingress_directly) {
    if (!sanctioned_name(name)) ingress_base.insert(name);
  }
  index.ingress_reaching = propagate(std::move(ingress_base), /*stop_at_sanctioned=*/true);
  index.draw_reaching = propagate(draws_directly, /*stop_at_sanctioned=*/false);

  // Non-coroutine wrappers that `return task_fn(...)` are task functions
  // themselves; close transitively so chains of forwarders resolve.
  bool grew = true;
  while (grew) {
    grew = false;
    for (const FileUnit& unit : units) {
      const auto it = index.functions.find(unit.path);
      if (it == index.functions.end()) continue;
      for (const FunctionDef& def : it->second) {
        if (def.is_coroutine || index.task_functions.count(def.name) != 0) continue;
        const std::vector<Token>& sig = unit.sig;
        for (std::size_t b = def.body_open + 1; b + 2 < sig.size() && b < def.body_close; ++b) {
          if (sig[b].text != "return") continue;
          if (sig[b + 1].kind == TokenKind::kIdentifier && sig[b + 2].text == "(" &&
              index.task_functions.count(sig[b + 1].text) != 0) {
            index.task_functions.insert(def.name);
            grew = true;
            break;
          }
        }
      }
    }
  }

  return index;
}

const FunctionDef* enclosing_function(const SymbolIndex& index, const std::string& file,
                                      std::size_t sig_idx) {
  const auto it = index.functions.find(file);
  if (it == index.functions.end()) return nullptr;
  const FunctionDef* best = nullptr;
  for (const FunctionDef& def : it->second) {
    if (def.body_open < sig_idx && sig_idx < def.body_close) {
      if (best == nullptr || def.body_open > best->body_open) best = &def;
    }
  }
  return best;
}

bool reaches(const SymbolIndex& index, const std::string& name, const std::string& target) {
  if (name == target) return true;
  std::set<std::string> seen = {name};
  std::vector<std::string> work = {name};
  while (!work.empty()) {
    const std::string current = work.back();
    work.pop_back();
    const auto it = index.calls.find(current);
    if (it == index.calls.end()) continue;
    for (const std::string& callee : it->second) {
      if (callee == target) return true;
      if (seen.insert(callee).second) work.push_back(callee);
    }
  }
  return false;
}

}  // namespace dlb::lint
