// Layer-discipline rule family: the allocation-free hot path stays
// allocation-free, Recorder*/metrics sites keep the null-check arming idiom
// from the observability layer, module includes respect the build graph, and
// headers stay self-contained.
#include <map>
#include <set>

#include "dlblint/rules.hpp"

namespace dlb::lint {
namespace {

// ---- hotpath-alloc -------------------------------------------------------

void rule_hotpath_alloc(const FileUnit& u, const Project&, std::vector<Diagnostic>& out) {
  if (!starts_with(u.path, "src/sim/")) return;
  const std::vector<Token>& sig = u.sig;
  static const std::set<std::string> kNodeContainers = {"deque", "list",          "map",
                                                        "set",   "unordered_map", "unordered_set",
                                                        "multimap", "multiset"};
  for (std::size_t i = 0; i < sig.size(); ++i) {
    const Token& t = sig[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    const std::string& prev = i > 0 ? sig[i - 1].text : std::string();
    if (t.text == "new") {
      if (prev == "operator") continue;                       // allocator definition
      if (i + 1 < sig.size() && sig[i + 1].text == "(") continue;  // placement new
      out.push_back({u.path, t.line, "hotpath-alloc",
                     "'new' in the pooled simulator hot path; allocate from the event pool "
                     "or FrameArena instead"});
    } else if (t.text == "delete") {
      if (prev == "operator" || prev == "=") continue;  // definition / =delete
      out.push_back({u.path, t.line, "hotpath-alloc",
                     "'delete' in the pooled simulator hot path; recycle through the pool "
                     "free list instead"});
    } else if (t.text == "make_unique" || t.text == "make_shared") {
      out.push_back({u.path, t.line, "hotpath-alloc",
                     "'" + t.text + "' allocates in the pooled simulator hot path"});
    } else if (kNodeContainers.count(t.text) != 0 && prev == "::" && i + 1 < sig.size() &&
               sig[i + 1].text == "<") {
      out.push_back({u.path, t.line, "hotpath-alloc",
                     "node-based 'std::" + t.text +
                         "' in the simulator hot path allocates per element; use "
                         "support::RingBuffer or a vector"});
    }
  }
}

// ---- recorder-guard ------------------------------------------------------

/// Components that name a Recorder* at an instrumentation site.  The arming
/// idiom stores the pointer in a field or parameter with one of these names;
/// the rule keys on them so it never needs cross-file type information.
bool recorder_component(const std::string& name) {
  return name == "obs" || name == "obs_" || name == "recorder" || name == "recorder_";
}

static const std::set<std::string> kRecorderMethods = {"activity", "phase",  "instant",
                                                       "message",  "sample", "metrics"};

/// Reconstructs the access path ending just before index `arrow` (which
/// holds "->"), e.g. tokens for `ctx.obs` or `recorder_`.  Returns indices
/// in order, or empty when the preceding tokens are not a plain path.
std::vector<std::size_t> path_before(const std::vector<Token>& sig, std::size_t arrow) {
  std::vector<std::size_t> rev;
  std::size_t i = arrow;
  bool expect_name = true;
  while (i-- > 0) {
    const Token& t = sig[i];
    if (expect_name) {
      if (t.kind != TokenKind::kIdentifier && t.text != "this") break;
      rev.push_back(i);
      expect_name = false;
    } else {
      if (t.text == "." || t.text == "->" || t.text == "::") {
        rev.push_back(i);
        expect_name = true;
      } else {
        break;
      }
    }
  }
  if (rev.empty() || expect_name) return {};
  return std::vector<std::size_t>(rev.rbegin(), rev.rend());
}

bool tokens_match_path(const std::vector<Token>& sig, std::size_t at,
                       const std::vector<Token>& path) {
  for (std::size_t k = 0; k < path.size(); ++k) {
    if (at + k >= sig.size() || sig[at + k].text != path[k].text) return false;
  }
  return true;
}

/// True when the use at token index `use` is inside a region where `path`
/// was null-checked: an `if (path ...)` block, an early-return guard, or an
/// in-statement `path && ...` / `path ? ...` test.
bool is_guarded(const std::vector<Token>& sig, std::size_t use, const std::vector<Token>& path) {
  // In-statement guard: scan back to the statement boundary for `path &&`
  // or `path ?` or `path != nullptr`.
  for (std::size_t b = use; b-- > 0;) {
    const std::string& t = sig[b].text;
    if (t == ";" || t == "{" || t == "}") break;
    if (tokens_match_path(sig, b, path)) {
      const std::size_t after = b + path.size();
      if (after < sig.size() &&
          (sig[after].text == "&&" || sig[after].text == "?" ||
           (sig[after].text == "!=" && after + 1 < sig.size() &&
            sig[after + 1].text == "nullptr")))
        return true;
    }
  }
  // Block guards: walk every `if (` whose condition mentions the path and
  // see whether `use` falls in its guarded region.
  for (std::size_t i = 0; i + 1 < sig.size() && i < use; ++i) {
    if (sig[i].text != "if" || sig[i + 1].text != "(") continue;
    const std::size_t cond_close = match_forward(sig, i + 1);
    if (cond_close == sig.size() || cond_close >= use) continue;
    bool positive = false, negative = false;
    for (std::size_t c = i + 2; c < cond_close; ++c) {
      if (!tokens_match_path(sig, c, path)) continue;
      const std::size_t after = c + path.size();
      const bool negated = c > 0 && sig[c - 1].text == "!";
      if (after <= cond_close &&
          (sig[after].text == ")" || sig[after].text == "&&" ||
           (sig[after].text == "!=" && sig[after + 1].text == "nullptr"))) {
        (negated ? negative : positive) = true;
      }
      if (after <= cond_close && sig[after].text == "==" && sig[after + 1].text == "nullptr") {
        negative = true;
      }
    }
    if (positive) {
      // Guarded region: the if body (block or single statement).
      std::size_t body_end;
      if (sig[cond_close + 1].text == "{") {
        body_end = match_forward(sig, cond_close + 1);
      } else {
        body_end = cond_close + 1;
        while (body_end < sig.size() && sig[body_end].text != ";") ++body_end;
      }
      if (use > cond_close && use <= body_end) return true;
    }
    if (negative) {
      // Early-exit guard: `if (!p) return;` protects the rest of the
      // enclosing block — find the body, require it to exit, then match the
      // enclosing brace.
      std::size_t body_end;
      bool exits = false;
      if (sig[cond_close + 1].text == "{") {
        body_end = match_forward(sig, cond_close + 1);
        for (std::size_t b = cond_close + 2; b < body_end; ++b) {
          if (sig[b].text == "return" || sig[b].text == "continue" || sig[b].text == "break" ||
              sig[b].text == "throw" || sig[b].text == "co_return")
            exits = true;
        }
      } else {
        body_end = cond_close + 1;
        exits = sig[body_end].text == "return" || sig[body_end].text == "continue" ||
                sig[body_end].text == "break" || sig[body_end].text == "throw" ||
                sig[body_end].text == "co_return";
        while (body_end < sig.size() && sig[body_end].text != ";") ++body_end;
      }
      if (exits && use > body_end) {
        // Enclosing block of the `if`: nearest unmatched '{' before it.
        int depth = 0;
        for (std::size_t b = i; b-- > 0;) {
          if (sig[b].text == "}") ++depth;
          else if (sig[b].text == "{") {
            if (depth == 0) {
              const std::size_t scope_end = match_forward(sig, b);
              if (use < scope_end) return true;
              break;
            }
            --depth;
          }
        }
      }
    }
  }
  return false;
}

/// Flow-sensitive fallback: a null test of `path` anywhere earlier in the
/// enclosing function dominates every later use in practice here (the arming
/// idiom tests once near the top, often binding `const bool armed = obs_ !=
/// nullptr`), so any of the test spellings before `use` inside the same body
/// satisfies the rule.
bool checked_earlier_in_function(const SymbolIndex& index, const FileUnit& u, std::size_t use,
                                 const std::vector<Token>& path) {
  const FunctionDef* fn = enclosing_function(index, u.path, use);
  if (fn == nullptr) return false;
  const std::vector<Token>& sig = u.sig;
  for (std::size_t b = fn->body_open + 1; b < use; ++b) {
    if (!tokens_match_path(sig, b, path)) continue;
    const std::size_t after = b + path.size();
    if (after >= sig.size()) continue;
    const std::string& nx = sig[after].text;
    if ((nx == "!=" || nx == "==") && after + 1 < sig.size() && sig[after + 1].text == "nullptr")
      return true;
    if (nx == "&&" || nx == "?") return true;
    if (b > 0 && sig[b - 1].text == "!") return true;
    if (b > 1 && sig[b - 1].text == "(" && sig[b - 2].text == "if" && nx == ")") return true;
  }
  return false;
}

void rule_recorder_guard(const FileUnit& u, const Project& project,
                         std::vector<Diagnostic>& out) {
  if (!starts_with(u.path, "src/") || starts_with(u.path, "src/obs/")) return;
  const std::vector<Token>& sig = u.sig;
  for (std::size_t i = 0; i + 2 < sig.size(); ++i) {
    if (sig[i].text != "->" || sig[i + 1].kind != TokenKind::kIdentifier) continue;
    if (kRecorderMethods.count(sig[i + 1].text) == 0 || sig[i + 2].text != "(") continue;
    const std::vector<std::size_t> path_idx = path_before(sig, i);
    if (path_idx.empty() || !recorder_component(sig[path_idx.back()].text)) continue;
    std::vector<Token> path;
    for (std::size_t k : path_idx) path.push_back(sig[k]);
    if (!is_guarded(sig, path_idx.front(), path) &&
        !checked_earlier_in_function(project.index, u, path_idx.front(), path)) {
      std::string spelled;
      for (const Token& t : path) spelled += t.text;
      out.push_back({u.path, sig[i + 1].line, "recorder-guard",
                     "'" + spelled + "->" + sig[i + 1].text +
                         "(...)' without a null check; observability pointers are null when "
                         "disarmed — guard with `if (" +
                         spelled + " != nullptr)`"});
    }
  }
}

// ---- layer-order ---------------------------------------------------------

/// Direct dependencies, mirroring src/*/CMakeLists.txt target_link_libraries.
/// The rule allows includes into a module's transitive closure only, so the
/// include graph can never get ahead of the link graph.
const std::map<std::string, std::set<std::string>>& module_deps() {
  static const std::map<std::string, std::set<std::string>> kDeps = {
      {"support", {}},
      {"sim", {"support"}},
      {"obs", {"sim", "support"}},
      {"net", {"sim", "obs", "support"}},
      {"load", {"sim", "support"}},
      {"cluster", {"sim", "net", "load", "support"}},
      {"fault", {"net", "sim", "support"}},
      {"core", {"cluster", "fault", "net", "obs", "load", "sim", "support"}},
      {"model", {"core", "cluster", "net"}},
      {"decision", {"model", "core"}},
      {"apps", {"core"}},
      {"sched", {"core", "cluster", "fault"}},
      {"svc", {"decision", "model", "core", "obs", "support"}},
      {"exp", {"svc", "net", "core", "cluster", "apps", "support"}},
      {"codegen", {"core"}},
  };
  return kDeps;
}

std::set<std::string> closure_of(const std::string& module) {
  std::set<std::string> seen = {module};
  std::vector<std::string> work = {module};
  while (!work.empty()) {
    const std::string m = work.back();
    work.pop_back();
    const auto it = module_deps().find(m);
    if (it == module_deps().end()) continue;
    for (const std::string& d : it->second) {
      if (seen.insert(d).second) work.push_back(d);
    }
  }
  return seen;
}

/// Extracts the quoted path of `#include "..."` from a preprocessor token.
std::string quoted_include(const std::string& line) {
  if (line.compare(0, 1, "#") != 0) return "";
  std::size_t i = 1;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (line.compare(i, 7, "include") != 0) return "";
  i += 7;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size() || line[i] != '"') return "";
  const std::size_t close = line.find('"', i + 1);
  if (close == std::string::npos) return "";
  return line.substr(i + 1, close - i - 1);
}

std::string angled_include(const std::string& line) {
  if (line.compare(0, 1, "#") != 0) return "";
  std::size_t i = 1;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (line.compare(i, 7, "include") != 0) return "";
  i += 7;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size() || line[i] != '<') return "";
  const std::size_t close = line.find('>', i + 1);
  if (close == std::string::npos) return "";
  return line.substr(i + 1, close - i - 1);
}

void rule_layer_order(const FileUnit& u, const Project&, std::vector<Diagnostic>& out) {
  const std::string module = module_of(u.path);
  if (module.empty() || module_deps().count(module) == 0) return;
  const std::set<std::string> allowed = closure_of(module);
  for (const Token& t : u.all) {
    if (t.kind != TokenKind::kPreprocessor) continue;
    const std::string inc = quoted_include(t.text);
    if (inc.empty()) continue;
    const std::size_t slash = inc.find('/');
    if (slash == std::string::npos) continue;
    const std::string target = inc.substr(0, slash);
    if (module_deps().count(target) == 0) continue;  // not a module path
    if (allowed.count(target) == 0) {
      out.push_back({u.path, t.line, "layer-order",
                     "src/" + module + " includes \"" + inc + "\" but module '" + target +
                         "' is not in its dependency closure (link order: support <- sim/obs "
                         "<- net <- ... <- core <- exp)"});
    }
  }
}

// ---- shard-isolation -----------------------------------------------------

// On a sharded engine every cross-shard interaction must ride the network's
// ingress channel (net::Network -> Engine::schedule_ingress), which stamps
// the canonical ordering key and respects the cut-through lookahead.  The
// module boundary lives in shard_isolated_module (rules_common.cpp), shared
// with the symbol index.
void rule_shard_isolation(const FileUnit& u, const Project& project,
                          std::vector<Diagnostic>& out) {
  if (!shard_isolated_module(module_of(u.path))) return;
  const std::vector<Token>& sig = u.sig;
  // Definition-name tokens in this file: a call-site scan must not flag the
  // definition of the offending helper itself (the direct check below fires
  // inside its body instead, where the fix or waiver belongs).
  std::set<std::size_t> def_names;
  const auto fit = project.index.functions.find(u.path);
  if (fit != project.index.functions.end()) {
    for (const FunctionDef& d : fit->second) def_names.insert(d.name_tok);
  }
  for (std::size_t i = 0; i < sig.size(); ++i) {
    const Token& t = sig[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "schedule_ingress") {
      out.push_back({u.path, t.line, "shard-isolation",
                     "'schedule_ingress' outside src/sim and src/net; cross-shard events are "
                     "injected only through the network's ingress channel, which stamps the "
                     "canonical key and keeps the conservative lookahead sound"});
    } else if (t.text == "deliver" && i > 0 &&
               (sig[i - 1].text == "." || sig[i - 1].text == "->") && i + 1 < sig.size() &&
               sig[i + 1].text == "(") {
      out.push_back({u.path, t.line, "shard-isolation",
                     "direct 'deliver(...)' into a mailbox bypasses the network send path; on a "
                     "sharded engine it can write into another shard's window — send through "
                     "net::Network instead"});
    } else if (i + 1 < sig.size() && sig[i + 1].text == "(" &&
               project.index.ingress_reaching.count(t.text) != 0 &&
               def_names.count(i) == 0 &&
               enclosing_function(project.index, u.path, i) != nullptr) {
      // Interprocedural: the callee's body (possibly through further calls)
      // reaches schedule_ingress or a raw mailbox deliver without a waiver.
      // A justified waiver at the primitive site sanctions the whole chain.
      out.push_back({u.path, t.line, "shard-isolation",
                     "call to '" + t.text +
                         "' reaches 'schedule_ingress'/mailbox 'deliver' transitively (via the "
                         "cross-TU call graph); route cross-shard work through net::Network, or "
                         "waive at the primitive site to sanction the helper"});
    }
  }
}

// ---- include-hygiene -----------------------------------------------------

struct StdSymbol {
  const char* name;
  const char* headers;  // comma-joined acceptable headers
};

/// std:: symbols whose home header is commonly picked up transitively; a
/// header that uses one must include a home header directly or it stops
/// being self-contained the day an unrelated include is cleaned up.
const StdSymbol kStdSymbols[] = {
    {"string", "string"},
    {"string_view", "string_view"},
    {"vector", "vector"},
    {"map", "map"},
    {"multimap", "map"},
    {"set", "set"},
    {"multiset", "set"},
    {"unordered_map", "unordered_map"},
    {"unordered_set", "unordered_set"},
    {"deque", "deque"},
    {"list", "list"},
    {"array", "array"},
    {"span", "span"},
    {"optional", "optional"},
    {"nullopt", "optional"},
    {"variant", "variant"},
    {"monostate", "variant"},
    {"any", "any"},
    {"any_cast", "any"},
    {"function", "functional"},
    {"unique_ptr", "memory"},
    {"shared_ptr", "memory"},
    {"weak_ptr", "memory"},
    {"make_unique", "memory"},
    {"make_shared", "memory"},
    {"pair", "utility"},
    {"tuple", "tuple"},
    {"ostream", "iosfwd,ostream,iostream,sstream"},
    {"istream", "iosfwd,istream,iostream,sstream"},
    {"ostringstream", "sstream"},
    {"istringstream", "sstream"},
    {"stringstream", "sstream"},
    {"ofstream", "fstream"},
    {"ifstream", "fstream"},
    {"coroutine_handle", "coroutine"},
    {"suspend_always", "coroutine"},
    {"suspend_never", "coroutine"},
    {"noop_coroutine", "coroutine"},
    {"exception_ptr", "exception"},
    {"current_exception", "exception"},
    {"rethrow_exception", "exception"},
    {"size_t", "cstddef"},
    {"ptrdiff_t", "cstddef"},
    {"byte", "cstddef"},
    {"max_align_t", "cstddef"},
    {"int8_t", "cstdint"},
    {"int16_t", "cstdint"},
    {"int32_t", "cstdint"},
    {"int64_t", "cstdint"},
    {"uint8_t", "cstdint"},
    {"uint16_t", "cstdint"},
    {"uint32_t", "cstdint"},
    {"uint64_t", "cstdint"},
    {"intptr_t", "cstdint"},
    {"uintptr_t", "cstdint"},
};

/// Insertion edit that adds `#include <header>` to the alphabetically right
/// slot of the header's first angled-include block (or after `#pragma once`
/// when there is none).  Mechanical enough for --fix: token offsets give the
/// exact byte positions, the replacement carries its own newline.
std::vector<TextEdit> include_insertion(const FileUnit& u, const std::string& header) {
  const std::string line = "#include <" + header + ">";
  const Token* pragma_once = nullptr;
  const Token* last_angled = nullptr;
  for (const Token& t : u.all) {
    if (t.kind != TokenKind::kPreprocessor) continue;
    if (t.text.find("pragma") != std::string::npos && t.text.find("once") != std::string::npos &&
        pragma_once == nullptr)
      pragma_once = &t;
    const std::string angled = angled_include(t.text);
    if (angled.empty()) continue;
    if (angled > header) {
      // First angled include sorting after ours: insert just before it.
      return {TextEdit{t.offset, 0, line + "\n"}};
    }
    last_angled = &t;
  }
  if (last_angled != nullptr)
    return {TextEdit{last_angled->offset + last_angled->length, 0, "\n" + line}};
  if (pragma_once != nullptr)
    return {TextEdit{pragma_once->offset + pragma_once->length, 0, "\n\n" + line}};
  return {};
}

void rule_include_hygiene(const FileUnit& u, const Project&, std::vector<Diagnostic>& out) {
  if (!starts_with(u.path, "src/") || !is_header(u.path)) return;
  std::set<std::string> included;
  for (const Token& t : u.all) {
    if (t.kind != TokenKind::kPreprocessor) continue;
    const std::string angled = angled_include(t.text);
    if (!angled.empty()) included.insert(angled);
  }
  std::map<std::string, const StdSymbol*> symbols;
  for (const StdSymbol& s : kStdSymbols) symbols[s.name] = &s;
  std::set<std::string> reported;
  const std::vector<Token>& sig = u.sig;
  for (std::size_t i = 0; i + 2 < sig.size(); ++i) {
    if (sig[i].text != "std" || sig[i + 1].text != "::") continue;
    const auto it = symbols.find(sig[i + 2].text);
    if (it == symbols.end() || reported.count(it->first) != 0) continue;
    bool satisfied = false;
    std::string headers = it->second->headers;
    std::size_t start = 0;
    while (start <= headers.size()) {
      const std::size_t comma = headers.find(',', start);
      const std::string h =
          headers.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
      if (included.count(h) != 0) satisfied = true;
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (!satisfied) {
      reported.insert(it->first);
      const std::string home = headers.substr(0, headers.find(','));
      Diagnostic d{u.path, sig[i].line, "include-hygiene",
                   "header uses 'std::" + it->first + "' without directly including <" + home +
                       ">; self-contained headers must not rely on transitive includes"};
      d.edits = include_insertion(u, home);
      out.push_back(std::move(d));
    }
  }
}

}  // namespace

void register_layer_rules(std::vector<Rule>& rules) {
  rules.push_back({"hotpath-alloc", "layering",
                   "no new/delete/node containers in the pooled src/sim hot path",
                   &rule_hotpath_alloc});
  rules.push_back({"recorder-guard", "layering",
                   "Recorder*/metrics sites must keep the null-check arming idiom",
                   &rule_recorder_guard});
  rules.push_back({"layer-order", "layering",
                   "module includes must respect the link-dependency closure",
                   &rule_layer_order});
  rules.push_back({"shard-isolation", "layering",
                   "cross-shard mailbox/queue access only via the network ingress channel",
                   &rule_shard_isolation});
  rules.push_back({"include-hygiene", "hygiene",
                   "headers must directly include the home header of std symbols they use",
                   &rule_include_hygiene});
}

}  // namespace dlb::lint
