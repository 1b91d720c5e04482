// Flow-sensitive rule family built on the pass-1 symbol graph.
//
//   seed-stream    — RNG discipline in the stochastic layers (src/svc,
//                    src/fault, src/exp): streams must be forked from the
//                    root seed with a salt, and every draw must execute
//                    unconditionally per logical step, or two configurations
//                    that share a seed diverge in stream *shape* and every
//                    downstream draw decorrelates.
//   float-order    — non-associative floating-point accumulation over an
//                    iteration order the standard does not pin down
//                    (unordered containers, std::reduce) in the merge/report
//                    paths; the repo's bit-identical-output invariant dies
//                    quietly when one of these creeps in.
//   vtime-monotone — arithmetic feeding Engine::schedule_at /
//                    schedule_cancellable_at / advance_to that can produce a
//                    virtual time before now(); the engine silently clamps
//                    such a time to now(), which hides the bug, so
//                    subtraction must be clamped with std::max(now, t) or
//                    proven monotone and waived.
#include <set>

#include "dlblint/rules.hpp"

namespace dlb::lint {
namespace {

bool seed_scoped(const std::string& path) {
  const std::string m = module_of(path);
  return m == "svc" || m == "fault" || m == "exp";
}

bool float_scoped(const std::string& path) {
  const std::string m = module_of(path);
  return m == "core" || m == "exp" || m == "obs" || m == "svc";
}

static const std::set<std::string> kDrawMethods = {"next", "uniform01", "uniform_int", "uniform"};

// ---- seed-stream ---------------------------------------------------------

/// Local Rng-typed declarations in the unit, split by how they were
/// initialized.  References are aliases to a caller-owned stream and are
/// never roots; a declaration whose initializer runs through `.fork(` is a
/// salted stream; anything else initialized in-line is a root.
struct RngVars {
  std::set<std::string> roots;
  std::set<std::string> all;  // every Rng-typed local name, refs included
};

RngVars rng_declarations(const std::vector<Token>& sig) {
  RngVars vars;
  for (std::size_t i = 0; i + 1 < sig.size(); ++i) {
    if (sig[i].text != "Rng" || sig[i].kind != TokenKind::kIdentifier) continue;
    std::size_t j = i + 1;
    bool is_ref = false;
    while (j < sig.size() && (sig[j].text == "&" || sig[j].text == "&&" || sig[j].text == "*" ||
                              sig[j].text == "const")) {
      if (sig[j].text == "&" || sig[j].text == "&&" || sig[j].text == "*") is_ref = true;
      ++j;
    }
    if (j >= sig.size() || sig[j].kind != TokenKind::kIdentifier) continue;
    const std::string name = sig[j].text;
    vars.all.insert(name);
    if (is_ref) continue;
    // Initializer tokens up to the statement end at depth 0.
    bool has_init = false, forked = false;
    int depth = 0;
    for (std::size_t k = j + 1; k < sig.size(); ++k) {
      const std::string& t = sig[k].text;
      if (t == "(" || t == "{" || t == "[") ++depth;
      else if (t == ")" || t == "}" || t == "]") {
        if (depth == 0) break;  // parameter declaration: `f(Rng rng)`
        --depth;
      } else if ((t == ";" || t == ",") && depth == 0) {
        break;
      }
      if (t == "=" || t == "(" || t == "{") has_init = true;
      if (t == "fork") forked = true;
    }
    if (has_init && !forked) vars.roots.insert(name);
  }
  return vars;
}

/// True when the expression containing significant index `d` evaluates
/// conditionally within its statement: scanning back to the statement
/// boundary we cross a `?`, `&&` or `||` that gates `d`.  Fully-balanced
/// groups to the left are skipped, and after a `,` at the current level the
/// tokens belong to a sibling argument — their conditional operators do not
/// gate us — until an unmatched `(` hoists the scan into the enclosing
/// expression again.
bool conditionally_evaluated(const std::vector<Token>& sig, std::size_t d) {
  bool in_sibling = false;
  std::size_t b = d;
  while (b-- > 0) {
    const std::string& t = sig[b].text;
    if (t == ";" || t == "{" || t == "}") return false;
    if (t == ")") {  // skip the balanced group ending here
      int depth = 1;
      while (b-- > 0 && depth > 0) {
        if (sig[b].text == ")") ++depth;
        else if (sig[b].text == "(") --depth;
      }
      if (b == static_cast<std::size_t>(-1)) return false;
      continue;
    }
    if (t == "(") {
      in_sibling = false;
      continue;
    }
    if (t == ",") {
      in_sibling = true;
      continue;
    }
    if (!in_sibling && (t == "?" || t == "&&" || t == "||")) return true;
  }
  return false;
}

void rule_seed_stream(const FileUnit& u, const Project& project, std::vector<Diagnostic>& out) {
  if (!seed_scoped(u.path)) return;
  const std::vector<Token>& sig = u.sig;
  const RngVars vars = rng_declarations(sig);
  std::set<std::size_t> def_names;
  const auto fit = project.index.functions.find(u.path);
  if (fit != project.index.functions.end()) {
    for (const FunctionDef& d : fit->second) def_names.insert(d.name_tok);
  }
  for (std::size_t i = 0; i + 2 < sig.size(); ++i) {
    const Token& t = sig[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    // Draw through a member/variable: `var.next(...)`.
    const bool member_draw = (sig[i + 1].text == "." || sig[i + 1].text == "->") &&
                             kDrawMethods.count(sig[i + 2].text) != 0 && i + 3 < sig.size() &&
                             sig[i + 3].text == "(";
    if (member_draw && vars.roots.count(t.text) != 0) {
      out.push_back({u.path, t.line, "seed-stream",
                     "draw from '" + t.text +
                         "', an RNG constructed straight from a seed; fork a salted stream "
                         "per purpose — support::Rng(seed).fork(kStreamConst) — so streams "
                         "stay independent of each other's draw counts"});
      continue;
    }
    // Temporary drawn without forking: `Rng(seed).uniform01()`.
    if (t.text == "Rng" && sig[i + 1].text == "(") {
      const std::size_t close = match_forward(sig, i + 1);
      if (close + 2 < sig.size() && sig[close + 1].text == "." &&
          kDrawMethods.count(sig[close + 2].text) != 0) {
        out.push_back({u.path, t.line, "seed-stream",
                       "draw from a temporary Rng constructed straight from a seed; fork a "
                       "salted stream per purpose — support::Rng(seed).fork(kStreamConst)"});
      }
      continue;
    }
    // Conditional advancement: a draw (direct, or through a helper the call
    // graph knows draws) inside a ternary branch or short-circuit operand.
    const bool direct_draw = member_draw && vars.all.count(t.text) != 0;
    const bool helper_draw = sig[i + 1].text == "(" &&
                             project.index.draw_reaching.count(t.text) != 0 &&
                             def_names.count(i) == 0 &&
                             (i == 0 || (sig[i - 1].text != "." && sig[i - 1].text != "->" &&
                                         sig[i - 1].text != "::")) ;
    if ((direct_draw || helper_draw) && conditionally_evaluated(sig, i)) {
      out.push_back({u.path, t.line, "seed-stream",
                     "RNG draw inside a conditional expression; a stream must advance the "
                     "same number of times per logical step on every path (draw first, then "
                     "branch on the value) or shapes decorrelate across configurations"});
    }
  }
}

// ---- float-order ---------------------------------------------------------

std::set<std::string> unordered_container_vars(const std::vector<Token>& sig) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < sig.size(); ++i) {
    if (sig[i].kind != TokenKind::kIdentifier ||
        (sig[i].text != "unordered_map" && sig[i].text != "unordered_set" &&
         sig[i].text != "unordered_multimap" && sig[i].text != "unordered_multiset"))
      continue;
    if (sig[i + 1].text != "<") continue;
    std::size_t close = match_forward(sig, i + 1);
    if (close == sig.size()) continue;
    std::size_t j = close + 1;
    while (j < sig.size() &&
           (sig[j].text == "&" || sig[j].text == "*" || sig[j].text == "const"))
      ++j;
    if (j < sig.size() && sig[j].kind == TokenKind::kIdentifier) names.insert(sig[j].text);
  }
  return names;
}

std::set<std::string> float_vars(const std::vector<Token>& sig) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < sig.size(); ++i) {
    if (sig[i].text == "double" || sig[i].text == "float") {
      std::size_t j = i + 1;
      while (j < sig.size() &&
             (sig[j].text == "&" || sig[j].text == "*" || sig[j].text == "const"))
        ++j;
      if (j < sig.size() && sig[j].kind == TokenKind::kIdentifier) names.insert(sig[j].text);
    } else if (sig[i].text == "auto" && i + 3 < sig.size() &&
               sig[i + 1].kind == TokenKind::kIdentifier && sig[i + 2].text == "=" &&
               sig[i + 3].kind == TokenKind::kNumber &&
               sig[i + 3].text.find('.') != std::string::npos) {
      names.insert(sig[i + 1].text);
    }
  }
  return names;
}

void rule_float_order(const FileUnit& u, const Project&, std::vector<Diagnostic>& out) {
  if (!float_scoped(u.path)) return;
  const std::vector<Token>& sig = u.sig;
  const std::set<std::string> unordered = unordered_container_vars(sig);
  const std::set<std::string> floats = float_vars(sig);
  for (std::size_t i = 0; i + 1 < sig.size(); ++i) {
    // std::reduce / std::transform_reduce: permitted to reassociate, so a
    // floating-point reduction is order-unstable by construction.
    if ((sig[i].text == "reduce" || sig[i].text == "transform_reduce") && i > 0 &&
        sig[i - 1].text == "::" && i + 1 < sig.size() && sig[i + 1].text == "(") {
      out.push_back({u.path, sig[i].line, "float-order",
                     "'std::" + sig[i].text +
                         "' may reassociate a floating-point reduction, so merge/report sums "
                         "lose bit-stability; use std::accumulate or an ordered loop"});
      continue;
    }
    // std::accumulate over an unordered container's range.
    if (sig[i].text == "accumulate" && i + 1 < sig.size() && sig[i + 1].text == "(") {
      const std::size_t close = match_forward(sig, i + 1);
      for (std::size_t a = i + 2; a < close; ++a) {
        if (sig[a].kind == TokenKind::kIdentifier && unordered.count(sig[a].text) != 0) {
          out.push_back({u.path, sig[i].line, "float-order",
                         "'std::accumulate' over '" + sig[a].text +
                             "' (unordered container): bucket order is implementation-defined, "
                             "so a floating-point sum changes bytes across runs — sort keys "
                             "first or accumulate into an ordered container"});
          break;
        }
      }
      continue;
    }
    // Range-for over an unordered container with a floating accumulation in
    // the body.
    if (sig[i].text != "for" || sig[i + 1].text != "(") continue;
    const std::size_t close = match_forward(sig, i + 1);
    if (close == sig.size()) continue;
    bool over_unordered = false;
    bool saw_colon = false;
    int depth = 0;
    for (std::size_t c = i + 2; c < close; ++c) {
      const std::string& t = sig[c].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      else if (t == ")" || t == "]" || t == "}") --depth;
      else if (t == ":" && depth == 0) saw_colon = true;
      else if (saw_colon && sig[c].kind == TokenKind::kIdentifier &&
               unordered.count(t) != 0)
        over_unordered = true;
    }
    if (!over_unordered) continue;
    std::size_t body_end;
    if (close + 1 < sig.size() && sig[close + 1].text == "{") {
      body_end = match_forward(sig, close + 1);
    } else {
      body_end = close + 1;
      while (body_end < sig.size() && sig[body_end].text != ";") ++body_end;
    }
    for (std::size_t b = close + 1; b < body_end && b < sig.size(); ++b) {
      const std::string& t = sig[b].text;
      const bool compound = t == "+=" || t == "-=" || t == "*=";
      if (!compound || b == 0) continue;
      const Token& lhs = sig[b - 1];
      if (lhs.kind == TokenKind::kIdentifier && floats.count(lhs.text) != 0) {
        out.push_back({u.path, lhs.line, "float-order",
                       "floating-point '" + lhs.text + " " + t +
                           "' accumulates in unordered-container iteration order, which is "
                           "implementation-defined; FP addition is non-associative, so the "
                           "sum is not bit-stable — iterate sorted keys instead"});
      }
    }
  }
}

// ---- vtime-monotone ------------------------------------------------------

static const std::set<std::string> kTimeSinks = {"schedule_at", "schedule_cancellable_at",
                                                 "advance_to"};

/// First argument token span [begin, end) of the call whose '(' is at
/// `open`: up to the first depth-0 comma or the close.
std::pair<std::size_t, std::size_t> first_arg(const std::vector<Token>& sig, std::size_t open) {
  const std::size_t close = match_forward(sig, open);
  if (close == sig.size()) return {open + 1, open + 1};
  int depth = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const std::string& t = sig[i].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    else if (t == ")" || t == "]" || t == "}") --depth;
    else if (t == "," && depth == 0) return {open + 1, i};
  }
  return {open + 1, close};
}

bool span_has(const std::vector<Token>& sig, std::size_t b, std::size_t e,
              const std::string& text) {
  for (std::size_t i = b; i < e && i < sig.size(); ++i) {
    if (sig[i].text == text) return true;
  }
  return false;
}

void rule_vtime_monotone(const FileUnit& u, const Project& project,
                         std::vector<Diagnostic>& out) {
  if (!starts_with(u.path, "src/")) return;
  const std::vector<Token>& sig = u.sig;
  for (std::size_t i = 0; i + 1 < sig.size(); ++i) {
    if (sig[i].kind != TokenKind::kIdentifier || kTimeSinks.count(sig[i].text) == 0) continue;
    if (sig[i + 1].text != "(") continue;
    const auto [ab, ae] = first_arg(sig, i + 1);
    if (ab >= ae) continue;
    // `std::max(now, t)` anywhere in the argument is the sanctioned clamp.
    if (span_has(sig, ab, ae, "max")) continue;
    if (span_has(sig, ab, ae, "-")) {
      // Parameter declarations are not arguments: a definition's first
      // "argument" is `SimTime t`, which never contains '-'.
      out.push_back({u.path, sig[i].line, "vtime-monotone",
                     "subtraction feeds '" + sig[i].text +
                         "'; virtual time must never move backwards — clamp with "
                         "std::max(engine.now(), t) or prove monotonicity and waive"});
      continue;
    }
    // Flow through a single-identifier argument: find the nearest preceding
    // assignment/initialization of that variable in the same function and
    // inspect its right-hand side the same way.
    if (ae != ab + 1 || sig[ab].kind != TokenKind::kIdentifier) continue;
    const std::string& var = sig[ab].text;
    const FunctionDef* fn = enclosing_function(project.index, u.path, i);
    const std::size_t lo = fn != nullptr ? fn->body_open : 0;
    for (std::size_t b = i; b-- > lo + 1;) {
      if (sig[b].text != var || b + 1 >= sig.size()) continue;
      const std::string& nx = sig[b + 1].text;
      if (nx != "=" && nx != "{") continue;
      if (nx == "=" && b + 2 < sig.size() && sig[b + 2].text == "=") continue;  // ==
      std::size_t rhs_end = b + 2;
      int depth = 0;
      while (rhs_end < sig.size()) {
        const std::string& t = sig[rhs_end].text;
        if (t == "(" || t == "[" || t == "{") ++depth;
        else if (t == ")" || t == "]" || t == "}") {
          if (depth == 0) break;
          --depth;
        } else if (t == ";" && depth == 0) {
          break;
        }
        ++rhs_end;
      }
      if (!span_has(sig, b + 2, rhs_end, "max") && span_has(sig, b + 2, rhs_end, "-")) {
        out.push_back({u.path, sig[i].line, "vtime-monotone",
                       "'" + var + "' (assigned at line " + std::to_string(sig[b].line) +
                           " with a subtraction) feeds '" + sig[i].text +
                           "'; virtual time must never move backwards — clamp with "
                           "std::max(engine.now(), t) or prove monotonicity and waive"});
      }
      break;  // nearest assignment dominates; earlier ones are dead here
    }
  }
}

}  // namespace

void register_flow_rules(std::vector<Rule>& rules) {
  rules.push_back({"seed-stream", "determinism",
                   "RNGs in src/{svc,fault,exp} must be fork-salted and advance "
                   "unconditionally per logical step",
                   &rule_seed_stream});
  rules.push_back({"float-order", "determinism",
                   "no non-associative FP reduction over unordered iteration in merge/report "
                   "paths",
                   &rule_float_order});
  rules.push_back({"vtime-monotone", "determinism",
                   "arithmetic feeding schedule_at/advance_to must not produce a time before "
                   "now()",
                   &rule_vtime_monotone});
}

}  // namespace dlb::lint
