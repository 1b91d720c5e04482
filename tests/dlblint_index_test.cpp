// Pass-1 symbol index unit tests: function/coroutine detection, overload
// collapsing, the name-level call graph (including cycles), and the
// cross-file reach-set fixpoints the interprocedural rules consume.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dlblint/index.hpp"

namespace {

using dlb::lint::FileUnit;
using dlb::lint::FunctionDef;
using dlb::lint::SymbolIndex;

FileUnit make_unit(const std::string& path, const std::string& src) {
  FileUnit u;
  u.path = path;
  u.all = dlb::lint::lex(src);
  u.sig = dlb::lint::significant(u.all);
  return u;
}

TEST(DlblintIndex, DetectsDefinitionsAndCollapsesOverloads) {
  const FileUnit u = make_unit("src/core/a.cpp",
                               "namespace x {\n"
                               "int pick(int a) { return a; }\n"
                               "int pick(int a, int b) { return a + b; }\n"
                               "int other() { return pick(1); }\n"
                               "}\n");
  const SymbolIndex index = dlb::lint::build_index({u});
  const auto it = index.functions.find("src/core/a.cpp");
  ASSERT_NE(it, index.functions.end());
  ASSERT_EQ(it->second.size(), 3u);
  EXPECT_EQ(it->second[0].name, "pick");
  EXPECT_EQ(it->second[0].line, 2);
  EXPECT_EQ(it->second[1].name, "pick");
  EXPECT_EQ(it->second[1].line, 3);
  EXPECT_EQ(it->second[2].name, "other");
  // Overloads collapse onto one graph node.
  ASSERT_EQ(index.defined_in.count("pick"), 1u);
  EXPECT_EQ(index.defined_in.at("pick").size(), 1u);
  EXPECT_TRUE(index.calls.at("other").count("pick"));
}

TEST(DlblintIndex, QualifiedMemberDefinitionKeepsBareName) {
  const FileUnit u = make_unit("src/core/b.cpp",
                               "void Widget::poke(int v) { value_ = v; }\n");
  const SymbolIndex index = dlb::lint::build_index({u});
  const std::vector<FunctionDef>& defs = index.functions.at("src/core/b.cpp");
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(defs[0].name, "poke");
  EXPECT_EQ(defs[0].qualified, "Widget::poke");
}

TEST(DlblintIndex, CallGraphCycleTerminatesAndReaches) {
  const FileUnit u = make_unit("src/core/cyc.cpp",
                               "void ping(int n) { if (n > 0) pong(n - 1); }\n"
                               "void pong(int n) { if (n > 0) ping(n - 1); }\n"
                               "void kick() { ping(3); }\n");
  const SymbolIndex index = dlb::lint::build_index({u});
  EXPECT_TRUE(dlb::lint::reaches(index, "ping", "pong"));
  EXPECT_TRUE(dlb::lint::reaches(index, "pong", "ping"));
  EXPECT_TRUE(dlb::lint::reaches(index, "kick", "pong"));
  EXPECT_FALSE(dlb::lint::reaches(index, "pong", "kick"));
}

TEST(DlblintIndex, CoroutineBodiesAndTaskWrappersAreMarked) {
  const FileUnit u = make_unit("src/core/coro.cpp",
                               "template <class T> struct Task {};\n"
                               "Task<int> inner() { co_return; }\n"
                               "Task<int> forward() { return inner(); }\n"
                               "int plain() { return 1; }\n");
  const SymbolIndex index = dlb::lint::build_index({u});
  const std::vector<FunctionDef>& defs = index.functions.at("src/core/coro.cpp");
  bool saw_inner = false;
  for (const FunctionDef& d : defs) {
    if (d.name == "inner") {
      saw_inner = true;
      EXPECT_TRUE(d.is_coroutine);
    }
    if (d.name == "plain") {
      EXPECT_FALSE(d.is_coroutine);
    }
  }
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(index.task_functions.count("inner"));
  EXPECT_TRUE(index.task_functions.count("forward")) << "wrapper returning a Task is task-like";
  EXPECT_FALSE(index.task_functions.count("plain"));
}

TEST(DlblintIndex, IngressReachingPropagatesAcrossFiles) {
  const FileUnit prim = make_unit("src/core/prim.cpp",
                                  "void emit_remote(Engine& e) { e.schedule_ingress(1, 2, 3); }\n");
  const FileUnit user = make_unit("src/cluster/user.cpp",
                                  "void relay(Engine& e) { emit_remote(e); }\n"
                                  "void untouched(Engine& e) { e.now(); }\n");
  const SymbolIndex index = dlb::lint::build_index({prim, user});
  EXPECT_TRUE(index.ingress_reaching.count("emit_remote"));
  EXPECT_TRUE(index.ingress_reaching.count("relay")) << "one hop across TUs";
  EXPECT_FALSE(index.ingress_reaching.count("untouched"));
}

TEST(DlblintIndex, SanctionedModulesAndWaiversDoNotSeedIngress) {
  // src/sim may touch the primitive freely; a justified waiver at the
  // primitive site sanctions helpers defined in guarded modules.
  const FileUnit sim = make_unit("src/sim/engine.cpp",
                                 "void pump(Engine& e) { e.schedule_ingress(1, 2, 3); }\n");
  const FileUnit waived = make_unit(
      "src/core/waived.cpp",
      "void requeue(Proc& p, int m) {\n"
      "  // dlblint:allow(shard-isolation) self-delivery into this shard\n"
      "  p.mailbox().deliver(m);\n"
      "}\n"
      "void drain(Proc& p) { requeue(p, 1); }\n");
  const SymbolIndex index = dlb::lint::build_index({sim, waived});
  EXPECT_FALSE(index.ingress_reaching.count("pump")) << "src/sim owns the primitive";
  EXPECT_FALSE(index.ingress_reaching.count("requeue")) << "waiver sanctions the helper";
  EXPECT_FALSE(index.ingress_reaching.count("drain"));
}

TEST(DlblintIndex, DrawReachingSeesThroughHelpers) {
  const FileUnit u = make_unit("src/svc/draw.cpp",
                               "double helper_draw(support::Rng& base) {\n"
                               "  support::Rng rng = base.fork(1);\n"
                               "  return rng.uniform01();\n"
                               "}\n"
                               "double via(support::Rng& base) { return helper_draw(base); }\n"
                               "int fixed() { return 4; }\n");
  const SymbolIndex index = dlb::lint::build_index({u});
  EXPECT_TRUE(index.draw_reaching.count("helper_draw"));
  EXPECT_TRUE(index.draw_reaching.count("via"));
  EXPECT_FALSE(index.draw_reaching.count("fixed"));
}

TEST(DlblintIndex, EnclosingFunctionFindsBodyAndRejectsOutside) {
  const FileUnit u = make_unit("src/core/encl.cpp",
                               "int before = 0;\n"
                               "void work() { int inside = 1; }\n"
                               "int after = 2;\n");
  const SymbolIndex index = dlb::lint::build_index({u});
  const std::vector<FunctionDef>& defs = index.functions.at("src/core/encl.cpp");
  ASSERT_EQ(defs.size(), 1u);
  const FunctionDef* in =
      dlb::lint::enclosing_function(index, "src/core/encl.cpp", defs[0].body_open + 1);
  ASSERT_NE(in, nullptr);
  EXPECT_EQ(in->name, "work");
  EXPECT_EQ(dlb::lint::enclosing_function(index, "src/core/encl.cpp", 0), nullptr);
  EXPECT_EQ(dlb::lint::enclosing_function(index, "src/missing/none.cpp", 0), nullptr);
}

}  // namespace
