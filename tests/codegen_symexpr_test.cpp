#include "codegen/symexpr.hpp"

#include <gtest/gtest.h>

#include "apps/mxm.hpp"
#include "codegen/compile.hpp"

namespace {

using dlb::codegen::Bindings;
using dlb::codegen::compile_app;
using dlb::codegen::SymExpr;

TEST(SymExpr, Arithmetic) {
  EXPECT_DOUBLE_EQ(SymExpr::parse("1 + 2 * 3").evaluate({}), 7.0);
  EXPECT_DOUBLE_EQ(SymExpr::parse("(1 + 2) * 3").evaluate({}), 9.0);
  EXPECT_DOUBLE_EQ(SymExpr::parse("10 / 4").evaluate({}), 2.5);
  EXPECT_DOUBLE_EQ(SymExpr::parse("7 - 2 - 1").evaluate({}), 4.0);  // left associative
  EXPECT_DOUBLE_EQ(SymExpr::parse("-3 + 5").evaluate({}), 2.0);
  EXPECT_DOUBLE_EQ(SymExpr::parse("--4").evaluate({}), 4.0);
}

TEST(SymExpr, PowerIsRightAssociative) {
  EXPECT_DOUBLE_EQ(SymExpr::parse("2 ^ 3").evaluate({}), 8.0);
  EXPECT_DOUBLE_EQ(SymExpr::parse("2 ^ 3 ^ 2").evaluate({}), 512.0);  // 2^(3^2)
  EXPECT_DOUBLE_EQ(SymExpr::parse("2 * 3 ^ 2").evaluate({}), 18.0);   // ^ binds tighter
}

TEST(SymExpr, SymbolsAndBindings) {
  const Bindings b{{"n", 30.0}, {"C", 400.0}};
  EXPECT_DOUBLE_EQ(SymExpr::parse("n ^ 3 + 3 * n ^ 2 + n").evaluate(b), 29730.0);
  EXPECT_DOUBLE_EQ(SymExpr::parse("C * 8").evaluate(b), 3200.0);
  EXPECT_THROW((void)SymExpr::parse("missing").evaluate(b), std::runtime_error);
}

TEST(SymExpr, IterationIndex) {
  const SymExpr e = SymExpr::parse("100 - i");
  EXPECT_TRUE(e.depends_on_index());
  EXPECT_DOUBLE_EQ(e.evaluate({}, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(e.evaluate({}, 40.0), 60.0);
  // Evaluating without a loop context is an error.
  EXPECT_THROW((void)e.evaluate({}), std::runtime_error);

  EXPECT_FALSE(SymExpr::parse("n * 2").depends_on_index());
}

TEST(SymExpr, ParseErrors) {
  EXPECT_THROW((void)SymExpr::parse(""), std::runtime_error);
  EXPECT_THROW((void)SymExpr::parse("1 +"), std::runtime_error);
  EXPECT_THROW((void)SymExpr::parse("(1 + 2"), std::runtime_error);
  EXPECT_THROW((void)SymExpr::parse("1 2"), std::runtime_error);
  EXPECT_THROW((void)SymExpr::parse("$"), std::runtime_error);
}

const char* kAnnotatedMxm = R"(#pragma dlb array Z(R, C) distribute(BLOCK, WHOLE)
#pragma dlb array X(R, R2) distribute(BLOCK, WHOLE)
#pragma dlb array Y(R2, C) distribute(WHOLE, WHOLE)
#pragma dlb balance work(C * R2) comm(C * 8)
for i = 0, R {
  for j = 0, R2 {
    for k = 0, C {
      Z(i,j) += X(i,k) * Y(k,j);
    }
  }
}
)";

TEST(CompileApp, MatchesHandWrittenMxmDescriptor) {
  const Bindings b{{"R", 400.0}, {"C", 400.0}, {"R2", 400.0}};
  const auto compiled = compile_app(kAnnotatedMxm, b);
  const auto reference = dlb::apps::make_mxm({400, 400, 400});

  ASSERT_EQ(compiled.loops.size(), 1u);
  const auto& c = compiled.loops[0];
  const auto& r = reference.loops[0];
  EXPECT_EQ(c.iterations, r.iterations);
  EXPECT_DOUBLE_EQ(c.ops_of(0), r.ops_of(0));
  EXPECT_DOUBLE_EQ(c.ops_of(399), r.ops_of(399));
  EXPECT_DOUBLE_EQ(c.bytes_per_iteration, r.bytes_per_iteration);
}

TEST(CompileApp, NonUniformWorkDetected) {
  const char* source =
      "#pragma dlb balance work(1000 - i)\nfor i = 0, 100 { body; }\n";
  const auto app = compile_app(source, {});
  EXPECT_DOUBLE_EQ(app.loops[0].ops_of(0), 1000.0);
  EXPECT_DOUBLE_EQ(app.loops[0].ops_of(99), 901.0);
}

TEST(CompileApp, IntrinsicClause) {
  const char* source =
      "#pragma dlb balance work(10) comm(8) intrinsic(64)\nfor i = 0, 4 { body; }\n";
  const auto app = compile_app(source, {});
  EXPECT_DOUBLE_EQ(app.loops[0].intrinsic_bytes_per_iteration, 64.0);
}

TEST(CompileApp, SymbolicBounds) {
  const char* source = "#pragma dlb balance work(1)\nfor i = n, (n * 3) { body; }\n";
  const auto app = compile_app(source, {{"n", 5.0}});
  EXPECT_EQ(app.loops[0].iterations, 10);
}

TEST(CompileApp, Rejections) {
  // No work clause.
  EXPECT_THROW((void)compile_app("#pragma dlb balance\nfor i = 0, 4 { x; }\n", {}),
               std::runtime_error);
  // Unbound symbol in work.
  EXPECT_THROW(
      (void)compile_app("#pragma dlb balance work(Q)\nfor i = 0, 4 { x; }\n", {}),
      std::runtime_error);
  // Index-dependent comm.
  EXPECT_THROW((void)compile_app(
                   "#pragma dlb balance work(1) comm(i)\nfor i = 0, 4 { x; }\n", {}),
               std::runtime_error);
  // Negative / non-integer iteration counts.
  EXPECT_THROW((void)compile_app("#pragma dlb balance work(1)\nfor i = 4, 0 { x; }\n", {}),
               std::runtime_error);
  EXPECT_THROW(
      (void)compile_app("#pragma dlb balance work(1)\nfor i = 0, (1 / 2) { x; }\n", {}),
      std::runtime_error);
  // Unknown clause.
  EXPECT_THROW(
      (void)compile_app("#pragma dlb balance speed(1)\nfor i = 0, 4 { x; }\n", {}),
      std::runtime_error);
}

}  // namespace
