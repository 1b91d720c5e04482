#include "codegen/symexpr.hpp"

#include <cctype>
#include <cmath>
#include <set>
#include <stdexcept>

namespace dlb::codegen {

namespace {

enum class Op { kNumber, kSymbol, kAdd, kSub, kMul, kDiv, kPow, kNeg };

}  // namespace

struct SymExpr::Node {
  Op op = Op::kNumber;
  double value = 0.0;      // kNumber
  std::string name;        // kSymbol
  std::unique_ptr<Node> lhs;
  std::unique_ptr<Node> rhs;  // null for kNeg
};

namespace {

using Node = SymExpr::Node;

/// Recursive-descent parser:
///   expr   := term (('+'|'-') term)*
///   term   := factor (('*'|'/') factor)*
///   factor := unary ('^' factor)?          (right associative)
///   unary  := '-' unary | primary
///   primary:= number | symbol | '(' expr ')'
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::unique_ptr<Node> run() {
    auto node = expr();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing input");
    return node;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("symexpr: " + message + " at position " + std::to_string(pos_) +
                             " in '" + text_ + "'");
  }
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  std::unique_ptr<Node> expr() {
    auto node = term();
    while (true) {
      if (eat('+')) {
        node = binary(Op::kAdd, std::move(node), term());
      } else if (eat('-')) {
        node = binary(Op::kSub, std::move(node), term());
      } else {
        return node;
      }
    }
  }

  std::unique_ptr<Node> term() {
    auto node = factor();
    while (true) {
      if (eat('*')) {
        node = binary(Op::kMul, std::move(node), factor());
      } else if (eat('/')) {
        node = binary(Op::kDiv, std::move(node), factor());
      } else {
        return node;
      }
    }
  }

  std::unique_ptr<Node> factor() {
    auto base = unary();
    if (eat('^')) {
      return binary(Op::kPow, std::move(base), factor());  // right associative
    }
    return base;
  }

  std::unique_ptr<Node> unary() {
    if (eat('-')) {
      auto node = std::make_unique<Node>();
      node->op = Op::kNeg;
      node->lhs = unary();
      return node;
    }
    return primary();
  }

  std::unique_ptr<Node> primary() {
    skip_ws();
    const char c = peek();
    if (c == '(') {
      (void)eat('(');
      auto node = expr();
      if (!eat(')')) fail("expected ')'");
      return node;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.') {
      std::size_t consumed = 0;
      double value = 0.0;
      try {
        value = std::stod(text_.substr(pos_), &consumed);
      } catch (const std::exception&) {
        fail("bad number");
      }
      pos_ += consumed;
      auto node = std::make_unique<Node>();
      node->op = Op::kNumber;
      node->value = value;
      return node;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::string name;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
              text_[pos_] == '_')) {
        name += text_[pos_++];
      }
      auto node = std::make_unique<Node>();
      node->op = Op::kSymbol;
      node->name = std::move(name);
      return node;
    }
    fail("expected number, symbol, or '('");
  }

  static std::unique_ptr<Node> binary(Op op, std::unique_ptr<Node> lhs,
                                      std::unique_ptr<Node> rhs) {
    auto node = std::make_unique<Node>();
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

double eval_node(const Node& node, const Bindings& bindings, const double* index) {
  switch (node.op) {
    case Op::kNumber:
      return node.value;
    case Op::kSymbol: {
      if (node.name == "i") {
        if (index == nullptr) {
          throw std::runtime_error("symexpr: iteration index 'i' used outside a loop context");
        }
        return *index;
      }
      const auto it = bindings.find(node.name);
      if (it == bindings.end()) {
        throw std::runtime_error("symexpr: unbound symbol '" + node.name + "'");
      }
      return it->second;
    }
    case Op::kAdd:
      return eval_node(*node.lhs, bindings, index) + eval_node(*node.rhs, bindings, index);
    case Op::kSub:
      return eval_node(*node.lhs, bindings, index) - eval_node(*node.rhs, bindings, index);
    case Op::kMul:
      return eval_node(*node.lhs, bindings, index) * eval_node(*node.rhs, bindings, index);
    case Op::kDiv:
      return eval_node(*node.lhs, bindings, index) / eval_node(*node.rhs, bindings, index);
    case Op::kPow:
      return std::pow(eval_node(*node.lhs, bindings, index),
                      eval_node(*node.rhs, bindings, index));
    case Op::kNeg:
      return -eval_node(*node.lhs, bindings, index);
  }
  throw std::logic_error("symexpr: unreachable");
}

void collect(const Node& node, bool* uses_index, std::set<std::string>* names) {
  if (node.op == Op::kSymbol) {
    if (node.name == "i") {
      *uses_index = true;
    } else {
      names->insert(node.name);
    }
  }
  if (node.lhs) collect(*node.lhs, uses_index, names);
  if (node.rhs) collect(*node.rhs, uses_index, names);
}

}  // namespace

SymExpr::SymExpr(std::unique_ptr<Node> root) : root_(std::move(root)) {}
SymExpr::SymExpr(SymExpr&&) noexcept = default;
SymExpr& SymExpr::operator=(SymExpr&&) noexcept = default;
SymExpr::~SymExpr() = default;

SymExpr SymExpr::parse(const std::string& text) { return SymExpr(Parser(text).run()); }

double SymExpr::evaluate(const Bindings& bindings) const {
  return eval_node(*root_, bindings, nullptr);
}

double SymExpr::evaluate(const Bindings& bindings, double iteration_index) const {
  return eval_node(*root_, bindings, &iteration_index);
}

bool SymExpr::depends_on_index() const {
  bool uses_index = false;
  std::set<std::string> names;
  collect(*root_, &uses_index, &names);
  return uses_index;
}

}  // namespace dlb::codegen
