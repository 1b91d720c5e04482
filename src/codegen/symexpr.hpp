#pragma once

#include <map>
#include <memory>
#include <string>

namespace dlb::codegen {

/// Bindings of symbolic program parameters (R, C, n, ...) to values, fixed
/// at run time — the paper's split where "the compiler generates symbolic
/// cost functions ... the actual decision making is deferred until run time
/// when we have complete information" (§4.3).
using Bindings = std::map<std::string, double>;

/// A parsed symbolic expression over + - * / ^, parentheses, numeric
/// literals, named parameters, and the reserved symbol `i` (the loop
/// iteration index, 0-based).
class SymExpr {
 public:
  /// Parses `text`; throws std::runtime_error with a position on error.
  [[nodiscard]] static SymExpr parse(const std::string& text);

  SymExpr(SymExpr&&) noexcept;
  SymExpr& operator=(SymExpr&&) noexcept;
  SymExpr(const SymExpr&) = delete;
  SymExpr& operator=(const SymExpr&) = delete;
  ~SymExpr();

  /// Evaluates with `bindings` (plus optionally the iteration index bound
  /// to `i`).  Throws std::runtime_error on an unbound symbol.
  [[nodiscard]] double evaluate(const Bindings& bindings) const;
  [[nodiscard]] double evaluate(const Bindings& bindings, double iteration_index) const;

  /// True iff the expression references the iteration index `i` (i.e., the
  /// loop is non-uniform).
  [[nodiscard]] bool depends_on_index() const;

  /// Implementation node (exposed for the parser in the implementation
  /// file; not part of the public API surface).
  struct Node;

 private:
  explicit SymExpr(std::unique_ptr<Node> root);
  std::unique_ptr<Node> root_;
};

}  // namespace dlb::codegen
