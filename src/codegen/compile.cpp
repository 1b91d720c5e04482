#include "codegen/compile.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "codegen/parser.hpp"

namespace dlb::codegen {

core::AppDescriptor compile_app(const std::string& source, const Bindings& bindings) {
  const Program program = parse(source);
  if (program.work_expr.empty()) {
    throw std::runtime_error("compile_app: the balance pragma needs a work(...) clause");
  }

  const double lo = SymExpr::parse(program.root.lo).evaluate(bindings);
  const double hi = SymExpr::parse(program.root.hi).evaluate(bindings);
  const double span = hi - lo;
  if (span < 0.0 || std::floor(span) != span) {
    throw std::runtime_error("compile_app: loop bounds must give a non-negative integer count");
  }

  auto work = std::make_shared<SymExpr>(SymExpr::parse(program.work_expr));

  core::LoopDescriptor loop;
  loop.name = "compiled-" + program.root.var;
  loop.iterations = static_cast<std::int64_t>(span);
  loop.work_ops = [work, bindings](std::int64_t index) {
    return work->evaluate(bindings, static_cast<double>(index));
  };

  const auto scalar_clause = [&](const std::string& expr, const char* what) {
    if (expr.empty()) return 0.0;
    const SymExpr parsed = SymExpr::parse(expr);
    if (parsed.depends_on_index()) {
      throw std::runtime_error(std::string("compile_app: ") + what +
                               " must not depend on the iteration index");
    }
    const double value = parsed.evaluate(bindings);
    if (value < 0.0) {
      throw std::runtime_error(std::string("compile_app: negative ") + what);
    }
    return value;
  };
  loop.bytes_per_iteration = scalar_clause(program.comm_expr, "comm(...)");
  loop.intrinsic_bytes_per_iteration = scalar_clause(program.intrinsic_expr, "intrinsic(...)");

  // Force evaluation of the work expression once so unbound symbols are
  // reported at compile time, not mid-simulation.
  if (loop.iterations > 0) (void)loop.work_ops(0);

  core::AppDescriptor app;
  app.name = "compiled";
  app.loops.push_back(std::move(loop));
  app.validate();
  return app;
}

}  // namespace dlb::codegen
